#ifndef GECKO_SIM_INTERMITTENT_SIM_HPP_
#define GECKO_SIM_INTERMITTENT_SIM_HPP_

#include <functional>
#include <memory>

#include "analog/voltage_monitor.hpp"
#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "compiler/pipeline.hpp"
#include "defense/controller.hpp"
#include "device/device_profile.hpp"
#include "energy/capacitor.hpp"
#include "energy/harvester.hpp"
#include "runtime/gecko_runtime.hpp"
#include "sim/machine.hpp"

/**
 * @file
 * The full intermittent-system simulation (paper Fig. 1): harvester →
 * capacitor → MCU, with a voltage monitor watching V_CC — and an
 * optional EMI source superimposing an attack tone on what the monitor
 * sees.
 *
 * Time advances in monitor-sample quanta.  While running, the machine
 * executes the cycles each quantum affords (energy-limited), the
 * capacitor discharges/charges, and the monitor observes
 * V_CC + v_EMI(t).  A backup event triggers the word-by-word JIT
 * checkpoint (when armed); a hard brown-out (monitor never fired — e.g.
 * EMI masking the window) loses the volatile state.  While sleeping the
 * capacitor recharges until a wake event boots the scheme's runtime.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::sim {

/** Simulation parameters beyond the device profile. */
struct SimConfig {
    analog::MonitorKind monitorKind = analog::MonitorKind::kAdc;
    energy::CapacitorConfig cap;
    /// NVM data size in words.
    std::size_t memWords = 16384;
    /// CTPL SRAM/peripheral snapshot size included in every JIT
    /// checkpoint/restore (cost-only words; makes the checkpoint-churn
    /// DoS expensive, as on real boards — the FR5994 has 8 KiB SRAM).
    int jitRamWords = 4096;
    /// Words at the start of the JIT checkpoint routine during which a
    /// wake signal still vetoes/aborts it (CTPL re-checks the wake
    /// condition before committing to the powerdown path).  Only
    /// sim_test sets it, to sweep the veto window.
    int jitAbortWindowWords = 48;
    /// Fixed cold-boot overhead on every wake (clock/DCO settling,
    /// peripheral re-initialisation — milliseconds-scale on real
    /// MSP430 boards), independent of the recovery scheme.
    std::uint64_t bootOverheadCycles = 16000;
    /// Restart the program on completion (continuous sensing loop).
    bool continuous = true;
    /// JIT checkpoint threshold override (V, capacitor-size sweep); the
    /// default -1, or any value <= 0, keeps the device profile's
    /// vBackup.
    double vBackupOverride = -1.0;
    /// Stride multiplier applied to the monitor sampling interval while
    /// no attack tone is active (pure speed knob; crossings detect a few
    /// µs late, which the V_backup→V_off energy margin absorbs).  Only
    /// sim_invariants_test sets it, to check invariants at every stride.
    int quietStride = 64;
    /// Component seed for the monitor's DCO sample jitter, combined with
    /// the global GECKO_SEED (exp::applyGlobalSeed).  The default 0 with
    /// no global seed preserves the historical jitter sequence.
    std::uint64_t monitorSeed = 0;
    /// Quantum fast path switch (DESIGN.md §14): -1 = resolve from
    /// GECKO_COALESCE (default on); 0 or 1 = off (the stepped
    /// reference); any other value = on.
    int coalesceQuanta = -1;
    /// Adaptive defense controller (DESIGN.md §11).  Off by default:
    /// the static-paper configurations and their byte-exact outputs are
    /// untouched.  Takes effect only for the guarded GECKO schemes.
    defense::DefenseConfig defense;
};

/** Simulation-level counters. */
struct SimStats {
    double simTimeS = 0.0;
    std::uint64_t reboots = 0;
    std::uint64_t hardDeaths = 0;
    std::uint64_t backupSignals = 0;
    std::uint64_t wakeSignals = 0;
    std::uint64_t ignoredBackups = 0;
    std::uint64_t jitCheckpointAttempts = 0;
    std::uint64_t jitCheckpointsComplete = 0;
    std::uint64_t jitCheckpointsTorn = 0;
    /// Checkpoints vetoed by a (possibly forged) wake signal inside the
    /// abort window — they leave the previous image in place unflagged.
    std::uint64_t jitCheckpointsAborted = 0;
    /// Hard deaths with the JIT protocol armed but no checkpoint taken
    /// in that power cycle (EMI masked the backup window).
    std::uint64_t missedCheckpoints = 0;
    std::uint64_t bootCycles = 0;
    // ------------------------------------------------------------------
    // Pure diagnostics (never archived): quantum-loop telemetry for the
    // bench drivers and the perf regression guard.  Excluded from
    // snapshots on purpose so campaign aggregates stay bit-identical
    // whether or not the fused quantum kernel engaged.
    // ------------------------------------------------------------------
    /// Monitor-sample quanta simulated while running (stepped or
    /// advanced by the fused kernel).
    std::uint64_t quanta = 0;
    /// Monitor-sample quanta stepped while sleeping (the analytic wake
    /// jump of a quiet recharge is not a quantum).
    std::uint64_t sleepQuanta = 0;
    /// Running quanta the fused kernel (DESIGN.md §14) advanced with no
    /// tone active; a subset of quanta.
    std::uint64_t coalescedQuanta = 0;
    /// Running and sleeping quanta the fused kernel advanced under a
    /// tone; a subset of quanta + sleepQuanta, disjoint from
    /// coalescedQuanta.
    std::uint64_t fusedQuanta = 0;
};

/** Harvester + capacitor + monitor + MCU + (optional) attacker. */
class IntermittentSim
{
  public:
    /**
     * @param compiled  program + region metadata (not owned)
     * @param device    board profile supplying thresholds and monitors
     * @param config    simulation knobs
     * @param harvester energy source (not owned)
     * @param io        peripherals (not owned)
     */
    IntermittentSim(const compiler::CompiledProgram& compiled,
                    const device::DeviceProfile& device,
                    const SimConfig& config, energy::Harvester& harvester,
                    IoHub& io);

    /** Attach the attacker's signal source (nullptr = no attack). */
    void setEmiSource(attack::EmiSource* source) { emi_ = source; }

    // ------------------------------------------------------------------
    // Fault-injection hooks (src/fault campaign; see DESIGN.md).
    // ------------------------------------------------------------------
    /**
     * Monitor fault: maps the voltage the monitor would see (rail + EMI)
     * to the voltage it actually reports, at simulated time `t`.  Models
     * stuck-at and offset faults in the sensing path.  Applied to every
     * observation, including the checkpoint-veto read.
     */
    void setMonitorFault(std::function<double(double v, double t)> f)
    {
        monitorFault_ = std::move(f);
    }

    /**
     * JIT write fault: called once per checkpoint word with its index
     * (0-based across the SRAM-padding and context words); returning
     * true makes that word's write fail transiently, abandoning the
     * attempt.  The simulator retries with backoff a bounded number of
     * times (CTPL's fixed policy), then reports exhaustion to the
     * runtime.
     */
    void setJitWriteFault(std::function<bool(int word)> f)
    {
        jitWriteFault_ = std::move(f);
    }

    /**
     * Drive the source from a schedule (tone windows over time).  The
     * source must also be set.
     */
    void setAttackSchedule(const attack::AttackSchedule* schedule)
    {
        schedule_ = schedule;
    }

    /** Advance the simulation by `simSeconds` of simulated time. */
    void run(double simSeconds);

    /**
     * Run until the program completed `target` times or `maxSimSeconds`
     * elapsed.
     * @return true if the target was reached.
     */
    bool runUntilCompletions(std::uint64_t target, double maxSimSeconds);

    double now() const { return now_; }
    Machine& machine() { return machine_; }
    const Machine& machine() const { return machine_; }
    runtime::GeckoRuntime& geckoRuntime() { return runtime_; }
    Nvm& nvm() { return nvm_; }
    energy::Capacitor& capacitor() { return cap_; }
    /** Adaptive controller, or null when SimConfig::defense is off. */
    defense::DefenseController* defenseController()
    {
        return defense_.get();
    }

    /** Checkpoint failure rate F = N_fail / N_checkpoints (§IV-B2). */
    double checkpointFailureRate() const;

    /**
     * Serialize/restore the full simulation state: a configuration
     * fingerprint (guard — restoring into a differently configured
     * instance throws campaign::SnapshotError), the simulator's own
     * clock/latches/stats, and every owned component (NVM, machine,
     * runtime, capacitor, monitors, defense controller) plus the
     * attached EMI source.  The caller archives the IoHub separately
     * (the simulator does not own it); the fault hooks and schedule
     * are reconstructed from the job spec, never serialized.  Only
     * call at a `run()` boundary — mid-quantum state lives on the
     * stack.
     */
    void archiveState(campaign::Archive& ar);

    SimStats stats;

  private:
    /**
     * A span of simulated time over which the fused kernel has proven
     * its inputs constant: the harvester returns (voc, rs), no
     * attack-window edge falls in [now, until), the quantum is `dt` long
     * and the tone is on or off throughout.  Local to one runLoop call.
     */
    struct FusedSpan {
        /// Longest span one proof covers, in quanta.
        static constexpr int kMaxQuanta = 1 << 16;
        double until = 0.0;
        double dt = 0.0;
        bool tone = false;
        double voc = 0.0;
        energy::Capacitor::ChargePlan plan;
        /// Length of the last proof, in quanta: the next proof starts
        /// from twice this, so a source that changes often converges
        /// on short proofs instead of re-halving from the maximum.
        int quanta = kMaxQuanta / 2;
    };

    bool attackActive() const;
    void updateAttack();
    double emiAt(double t);
    analog::MonitorEvent observeMonitor();
    /// Shared driver behind run()/runUntilCompletions(): advance until
    /// `end` or until the program completed `targetCompletions` times
    /// (kNoCompletionTarget = unbounded).  The target is polled on the
    /// historical 0.01 s cadence inside this one loop — no per-slice
    /// run() re-entry — so bounded runs keep their settle tail.
    void runLoop(double end, std::uint64_t targetCompletions);
    /// The stride decision: the length of the next running quantum
    /// (one monitor sample under attack or near V_backup, quietStride
    /// samples otherwise).
    double quantumS(bool attacked) const;
    void stepRunning();
    /**
     * The fused quantum kernel (DESIGN.md §14), the one quantum fast
     * path: steps running quanta, and sleeping quanta under a tone, in
     * one loop until a brown-out looms, the stride changes, a backup
     * arms the JIT checkpoint, a wake boots, the machine must run where
     * its run cannot be deferred, or `stopAt` / the span's end is
     * reached.  A deferred machine budget is run before any of those
     * exits and before a controller transition.  `Policy` is the
     * static per-sample defense policy (a no-op without a controller).
     * @return true if it advanced the simulation; false leaves the
     * quantum to the stepped path.
     */
    bool fusedRun(FusedSpan& span, double stopAt);
    bool proveFusedSpan(FusedSpan& span, double dt, bool tone);
    template <class Monitor, class Policy>
    bool fusedQuanta(Monitor& monitor, Policy defense,
                     const FusedSpan& span, double stopAt);
    /**
     * The machine run of a stretch of running quanta whose clock
     * budgets were already debited from debt_ (the fused kernel's
     * deferral): runs the machine for the owed -debt_ cycles, if any,
     * then makes the stretch's one noteExecutionSinceCheckpoint and
     * onProgress.  `lastStart` is the owed budget up to the start of
     * the stretch's last quantum (≤ 0 when it has only one): a halt or
     * latched fault before it burns the rest, as the later quanta
     * would, one inside it does not.
     */
    void runOwedMachine(std::int64_t lastStart);
    /// Backup/wake bookkeeping after a running quantum's observation.
    void onRunningEvents(const analog::MonitorEvent& ev);
    /// A wake observed while sleeping: boots unless the brown-out
    /// lockout or the defense controller holds it off.
    void onSleepingWake();
    void stepSleeping();
    void doJitCheckpoint();
    void hardDeath();
    void boot();
    void enterSleep();
    void feedDefense(double vLo, double vHi,
                     const analog::MonitorEvent& primary);

    enum class State { kRunning, kSleeping };

    const device::DeviceProfile& device_;
    SimConfig config_;
    energy::Harvester& harvester_;
    Nvm nvm_;
    Machine machine_;
    runtime::GeckoRuntime runtime_;
    energy::Capacitor cap_;
    std::unique_ptr<analog::VoltageMonitor> monitor_;
    /// monitor_ statically typed for the fused kernel (exactly one is
    /// non-null).
    analog::AdcMonitor* adcMonitor_ = nullptr;
    analog::ComparatorMonitor* compMonitor_ = nullptr;
    /// Redundant monitor of the opposite kind, feeding the defense
    /// controller's cross-validation (null when defense is off).
    std::unique_ptr<analog::VoltageMonitor> shadowMonitor_;
    std::unique_ptr<defense::DefenseController> defense_;
    attack::EmiSource* emi_ = nullptr;
    const attack::AttackSchedule* schedule_ = nullptr;
    std::function<double(double v, double t)> monitorFault_;
    std::function<bool(int word)> jitWriteFault_;

    State state_ = State::kSleeping;
    // First-divergence latch so a monitor fault is traced once per case,
    // not once per sample.
    bool monitorFaultTraced_ = false;
    double now_ = 0.0;
    double cycleCarry_ = 0.0;
    /// Cycle ledger: machine cycles executed minus cycles paid for
    /// (discharged).  The capacitor is debited the *planned* clock
    /// budget every quantum — making its trajectory independent of
    /// where instruction boundaries land — while the machine's one-
    /// instruction budget overshoot is carried here and netted off the
    /// next quantum's budget.  Settled (paid down) on brown-out.
    std::int64_t debt_ = 0;
    std::uint64_t cyclesAtBoot_ = 0;
    std::uint32_t sampleSeq_ = 0;
    double vOn_;
    double vBackup_;
    double vOff_;
    double energyAtVoff_;
    double epc_;  // energy per cycle
    double spc_;  // seconds per cycle
    /// Resolved fast-path switch (config/GECKO_COALESCE).
    bool fastPath_ = false;
};

/**
 * Convenience: execute `compiled` start-to-halt on a fresh machine with
 * no power failures.
 * @return total cycles (the scheme's failure-free execution time).
 */
std::uint64_t runToCompletion(const compiler::CompiledProgram& compiled,
                              Nvm& nvm, IoHub& io);

}  // namespace gecko::sim

#endif  // GECKO_SIM_INTERMITTENT_SIM_HPP_
