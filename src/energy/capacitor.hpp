#ifndef GECKO_ENERGY_CAPACITOR_HPP_
#define GECKO_ENERGY_CAPACITOR_HPP_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "trace/current.hpp"

/**
 * @file
 * Energy-buffer capacitor model.
 *
 * The capacitor is the intermittent system's sole energy store (paper
 * Fig. 1).  State is tracked as stored energy E = ½CV²; computation
 * discharges it, the harvester charges it through a Thevenin source
 * resistance (which makes charge time grow superlinearly with C — the
 * Fig. 15 effect), and a parallel leakage conductance drains it.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::energy {

/** Capacitor parameters. */
struct CapacitorConfig {
    /// Capacitance in farad (paper sweeps 1 mF .. 10 mF).
    double capacitanceF = 1e-3;
    /// Voltage at simulation start.
    double initialV = 3.3;
    /// Clamp voltage (harvester/regulator limit).
    double maxV = 3.3;
    /// Parallel leakage conductance in siemens.
    double leakageS = 2e-7;
};

/** The energy-buffer capacitor. */
class Capacitor
{
  public:
    explicit Capacitor(const CapacitorConfig& config);

    /** Current terminal voltage (V). */
    double voltage() const
    {
        return std::sqrt(2.0 * energyJ_ / config_.capacitanceF);
    }

    /** Stored energy (J). */
    double energy() const { return energyJ_; }

    double capacitance() const { return config_.capacitanceF; }

    double maxVoltage() const { return config_.maxV; }

    /**
     * Draw `joules` from the buffer.  Inline: this is the simulator's
     * per-quantum hot path (millions of calls per figure), and the
     * common case — thresholds unwatched, or no trace buffer installed
     * — must not pay an out-of-line call just to discover there is
     * nothing to trace.
     * @return the energy actually drawn (less than requested iff the
     *         buffer ran dry).
     */
    double discharge(double joules)
    {
        const double prevE = energyJ_;
        double drawn = std::min(joules, energyJ_);
        energyJ_ -= drawn;
        if (tracing())
            traceCrossings(prevE, energyJ_);
        return drawn;
    }

    /**
     * Batched-discharge support for the simulator's execution quanta:
     * the number of whole cycles at `epcJ` joules/cycle the buffer can
     * afford before the stored energy would fall to `floorEnergyJ`.
     * This is the crossing-safe bound the block-compiled backend's
     * entry guard relies on — a run budgeted by this value can never
     * discharge across the floor threshold mid-block, so threshold
     * crossings are only ever observed at batch-commit granularity
     * (dischargeCycles), identically for every execution tier.
     */
    std::uint64_t affordableCycles(double epcJ, double floorEnergyJ) const
    {
        const double avail = energyJ_ - floorEnergyJ;
        return avail > 0 ? static_cast<std::uint64_t>(avail / epcJ) : 0;
    }

    /**
     * Commit one batch of computation: draw `cycles * epcJ` in a single
     * RC update.  Threshold-crossing trace events fire here, once per
     * batch — per-instruction discharge would emit the same crossings
     * (energy is linear in cycles) but 10^3x more integration steps.
     * @return joules actually drawn.
     */
    double dischargeCycles(std::uint64_t cycles, double epcJ)
    {
        return discharge(static_cast<double>(cycles) * epcJ);
    }

    /**
     * True iff the stored energy is within `marginJ` above the energy
     * level `thresholdEJ` (armed-threshold proximity guard: callers
     * drop to fine-grained sampling before a crossing can slip between
     * two coarse quanta).
     */
    bool nearThresholdE(double thresholdEJ, double marginJ) const
    {
        return energyJ_ - thresholdEJ < marginJ;
    }

    /**
     * Charge from a Thevenin source (`vOc`, `rSeries`) for `dt` seconds,
     * including leakage.  Uses the exact solution of the linear RC ODE,
     * so arbitrarily large steps are stable.
     */
    void chargeFrom(double vOc, double rSeries, double dt);

    /** Let only leakage act for `dt` seconds. */
    void leak(double dt);

    /**
     * Precomputed coefficients of one `chargeFrom(vOc, rSeries, dt)`
     * step.  When the simulator's quantum-coalescing fast path has
     * proven the source steady over a whole burst (constant vOc and
     * rSeries, fixed dt), the Thevenin divide/exp work is hoisted out
     * of the per-quantum loop; `quietStep` then replays the exact
     * floating-point sequence of `discharge` + `chargeFrom` with these
     * constants, bit-for-bit.  The simulator's fused EMI-active kernel
     * hoists it the same way over a span it has proven steady.
     */
    struct ChargePlan {
        double vOc = 0.0;
        double vInf = 0.0;      ///< b/a — steady-state voltage
        double rcDecay = 1.0;   ///< e^{-a dt}
        double leakDecay = 1.0; ///< e^{-G dt / C}
    };

    /** Build the coefficients `chargeFrom` would derive per call. */
    ChargePlan planCharge(double vOc, double rSeries, double dt) const
    {
        ChargePlan p;
        p.vOc = vOc;
        const double c = config_.capacitanceF;
        const double a = 1.0 / (rSeries * c) + config_.leakageS / c;
        const double b = vOc / (rSeries * c);
        p.vInf = b / a;
        p.rcDecay = std::exp(-a * dt);
        p.leakDecay = std::exp(-config_.leakageS * dt / c);
        return p;
    }

    /**
     * One untraced simulation quantum: `discharge(joules)` followed by
     * `chargeFrom` under a precomputed plan.  The running quantum draws
     * `cycles * epcJ` (exactly what `dischargeCycles` computes), the
     * sleeping quantum `sleepPowerW * dt`.  Caller contract (the
     * coalescing and fused-kernel guards): no trace buffer is installed
     * and the outage latch has already been settled via `noteSource`,
     * so the tracing hooks the slow path would run are provably inert
     * and are skipped here.  Every energy-state operation matches the
     * slow path's floating-point arithmetic exactly.
     */
    void quietStep(double joules, const ChargePlan& p)
    {
        energyJ_ = quietStepEnergy(energyJ_, joules, p,
                                   config_.capacitanceF, config_.maxV);
    }

    /**
     * Adopt the stored energy a march of quietStepEnergy calls reached
     * from energy(): the same value the matching quietStep calls would
     * leave, so the coalescing commit takes it instead of replaying
     * them.
     */
    void adoptQuietEnergy(double energyJ) { energyJ_ = energyJ; }

    /**
     * Pure form of quietStep's energy update: the stored energy after
     * one quiet quantum drawing `joules` under plan `p`.  Static so the
     * coalescing proof can march the *exact* burst trajectory on local
     * copies — the same floating-point operations in the same order as
     * the commit — before mutating anything.
     */
    static double quietStepEnergy(double energyJ, double joules,
                                  const ChargePlan& p, double capacitanceF,
                                  double maxV)
    {
        energyJ -= std::min(joules, energyJ);
        double v = std::sqrt(2.0 * energyJ / capacitanceF);
        if (p.vOc <= v)
            v = v * p.leakDecay;
        else
            v = p.vInf + (v - p.vInf) * p.rcDecay;
        v = std::clamp(v, 0.0, maxV);
        return 0.5 * capacitanceF * v * v;
    }

    /**
     * Settle the harvester-outage trace latch for source voltage `vOc`
     * without charging.  The coalescing fast path calls this once per
     * burst; with a steady source it is equivalent to the per-quantum
     * `traceOutage` the slow path performs inside `chargeFrom`.
     */
    void noteSource(double vOc) { traceOutage(vOc); }

    /**
     * Time needed for `chargeFrom(vOc, rSeries, ·)` to lift the voltage
     * to `targetV`.
     * @return seconds, or a negative value if `targetV` is unreachable
     *         (above the steady-state voltage).
     */
    double timeToReach(double targetV, double vOc, double rSeries) const;

    /** Force the voltage (used by tests and scenario setup). */
    void setVoltage(double v)
    {
        v = std::clamp(v, 0.0, config_.maxV);
        energyJ_ = 0.5 * config_.capacitanceF * v * v;
    }

    /**
     * Arm trace emission of threshold crossings (V_off, V_backup, V_on)
     * and harvester outage edges.  Off by default; the intermittent
     * simulator arms it when event tracing is compiled in.  Purely
     * observational — never changes the energy state.
     */
    void watchThresholds(double vOff, double vBackup, double vOn);

    /**
     * Serialize/restore the energy state plus the outage trace latch.
     * Configuration and the watch thresholds are reconstructed by the
     * owning simulator, not archived.
     */
    void archiveState(campaign::Archive& ar);

  private:
    /// Whether crossings must be traced: thresholds armed and a buffer
    /// installed.  Inline so an idle trace costs one TLS load, not an
    /// out-of-line call per discharge.
    bool tracing() const { return watching_ && trace::current() != nullptr; }

    // Crossing detection runs in the energy domain (E = ½CV² is strictly
    // monotone in V) so the per-quantum discharge path never needs the
    // sqrt in voltage() just to feed tracing.
    void traceCrossings(double prevE, double newE);
    void traceOutage(double vOc);

    CapacitorConfig config_;
    double energyJ_;
    // Memoized chargeFrom/leak coefficients (derived state, never
    // archived): harvesters are piecewise-constant and the simulation
    // quantum is fixed over long spans, so consecutive RC steps repeat
    // the same (vOc, Rs, dt) inputs and can skip the divides and exp().
    // A miss recomputes exactly the cached expressions, so results are
    // bit-identical whether or not the cache hits — including across a
    // snapshot restore, which simply starts cold.
    double planVoc_ = -1.0;
    double planRs_ = -1.0;
    double planDt_ = -1.0;
    ChargePlan plan_{};
    double leakDt_ = -1.0;
    double leakDecay_ = 1.0;
    // Trace-only state (inert unless watchThresholds was called).
    bool watching_ = false;
    bool outage_ = false;
    double thresholds_[3] = {0.0, 0.0, 0.0};
    double thresholdsE_[3] = {0.0, 0.0, 0.0};
};

/**
 * Energy between two voltage levels for capacitance `c`:
 * ½c(v_hi² − v_lo²).
 */
double bufferedEnergy(double c, double vHi, double vLo);

}  // namespace gecko::energy

#endif  // GECKO_ENERGY_CAPACITOR_HPP_
