#ifndef GECKO_DEFENSE_CONTROLLER_HPP_
#define GECKO_DEFENSE_CONTROLLER_HPP_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "analog/voltage_monitor.hpp"
#include "defense/defense.hpp"

/**
 * @file
 * The online adaptive defense controller (DESIGN.md §11).
 *
 * One instance rides along with one simulated node.  The intermittent
 * simulator feeds it every monitor observation (both the primary and
 * the shadow monitor's view of the same sample) plus protocol
 * notifications (boot detections, rollbacks, commits, save-retry
 * exhaustion, sleep entries); the runtime and simulator query it for
 * the current checkpoint policy.  The controller is pure deterministic
 * state — no RNG, no clocks — so traces and campaign bytes stay
 * thread-count-invariant.
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::defense {

/** Evidence bits carried in kDefenseAnomaly's payload `b`. */
enum AnomalyEvidence : std::uint64_t {
    kEvidencePhysics = 0x1,    ///< dV/dt outside the RC bound
    kEvidenceDisagree = 0x2,   ///< monitor views disagree on an edge
    kEvidenceBoot = 0x4,       ///< ACK/timer detection at boot
    kEvidenceRetries = 0x8,    ///< save-retry budget exhausted
};

class DefenseController
{
  public:
    DefenseController(const DefenseConfig& config, const PlantModel& plant);

    // ------------------------------------------------------------------
    // Observations (simulator / runtime → controller).
    // ------------------------------------------------------------------
    /**
     * One monitor sample at time `t`.  Point samples pass vLo == vHi;
     * continuous monitors under attack pass the window envelope.  The
     * controller cross-validates the two monitor views and checks the
     * observed voltage step against the RC physics bound.
     */
    void observeSample(double t, double vLo, double vHi,
                       const analog::MonitorEvent& primary,
                       const analog::MonitorEvent& shadow);

    /**
     * The inline per-sample step of observeSample: the sample counters,
     * the stepped score decay, the calm run, the edge-skew windows, the
     * evidence charges and the last-sample record.  Applies the sample
     * and returns true when observeSample would take no transition on
     * it.  Otherwise returns false and leaves every field untouched;
     * the caller then hands the sample to observeSample.  A transition
     * is an escalation, a crossing that sets the anomaly latch, a
     * relapse-level change or a de-escalation.  Physics, disagreement
     * and matured-edge evidence that only feeds a score the mode
     * already answers (a saturated score under a sustained tone) is
     * stepped here.  The simulator's quantum fast paths step the
     * controller through this (DESIGN.md §14).
     */
    bool stepSample(double t, double vLo, double vHi,
                    const analog::MonitorEvent& primary,
                    const analog::MonitorEvent& shadow);

    /**
     * Whether one noteCommit after a fused machine run equals the
     * per-quantum calls it replaces: with no energy debt outstanding
     * every call leaves it at exactly 0, and outside kDegraded no
     * sample reads committedSinceDegrade_ (DESIGN.md §14).
     */
    bool commitsGroup() const
    {
        return stats_.energyDebtJ == 0.0 && mode_ != Mode::kDegraded;
    }

    /** Boot-time detector verdicts (§VI-A ACK / timer evidence). */
    void noteBootEvidence(double t, bool ackDetect, bool timerDetect);

    /** A rollback recovery of `regionId` just ran (ratchet input). */
    void noteRollback(double t, std::uint32_t regionId);

    /** Committed-region progress (monotone commit counter). */
    void noteCommit(std::uint64_t commitCount);

    /** The bounded checkpoint-save retry budget ran out. */
    void noteRetriesExhausted(double t);

    /**
     * The node entered sleep at `t`; `fullChargeEstS` is the physics
     * estimate of the time to recharge to V_on (negative =
     * unreachable).  In kDegraded this arms the recharge dwell that
     * gates forgeable monitor wakes.
     */
    void noteSleepEnter(double t, double fullChargeEstS);

    /** Energy charged to the debt ledger (boot/rollback overhead). */
    void noteEnergyCost(double t, double joules);

    // ------------------------------------------------------------------
    // Policy queries (controller → runtime / simulator).
    // ------------------------------------------------------------------
    Mode mode() const { return mode_; }
    double score() const { return score_; }

    /** May the JIT checkpoint protocol be trusted right now? */
    bool jitAllowed() const { return mode_ <= Mode::kSuspicious; }

    /**
     * May a monitor wake signal boot the node at time `t`?  Always true
     * outside kDegraded; inside it, the physics-timed recharge dwell
     * must have elapsed (wake signals are forgeable, timers are not).
     */
    bool wakeAllowed(double t);

    /**
     * Save-retry backoff for `attempt` (0-based), in cycles.  kNominal
     * preserves the legacy linear policy; escalated modes back off
     * exponentially with a cap so a sustained burst cannot be ridden
     * out by hammering the NVM.
     */
    int backoffCycles(int attempt) const;

    const DefenseStats& stats() const { return stats_; }
    const DefenseConfig& config() const { return config_; }

    /**
     * Serialize/restore the controller's pure state: mode ladder,
     * anomaly score, ratchet, recharge dwell, and counters.  The
     * config and plant-derived constants are ctor inputs, not
     * archived.
     */
    void archiveState(campaign::Archive& ar);

  private:
    void addEvidence(double t, double weight, std::uint64_t evidence);
    /// Calm dwell currently required to step one mode down:
    /// calmSamples doubled once per relapse level.
    int calmDwell() const
    {
        const int shift = std::min(relapseLevel_, config_.relapseLevelCap);
        const long long dwell = static_cast<long long>(config_.calmSamples)
                                << std::min(shift, 20);
        return static_cast<int>(std::min<long long>(dwell, 1 << 20));
    }
    void decayAndMaybeDeescalate(double t);
    /// One-monitor edge pulse awaiting the other monitor's matching
    /// pulse (lead: +1 primary, -1 shadow, 0 empty).
    struct PendingEdge {
        int lead = 0;
        int age = 0;
    };
    /// Track one edge kind (backup or wake) through the skew window,
    /// counting a reconciled skew in `skews`; returns the number of
    /// disagreement charges that matured.
    int trackEdge(PendingEdge& pending, bool primaryPulse, bool shadowPulse,
                  std::uint64_t& skews) const;
    void escalateTo(double t, Mode target);
    void setMode(double t, Mode next);
    void tripRatchet(double t, std::uint32_t regionId,
                     std::uint64_t count);

    DefenseConfig config_;
    PlantModel plant_;
    /// Max legitimate |dV/dt| (V/s): discharge + charge slew.
    double maxSlewVps_ = 0.0;
    double debtBudgetJ_ = 0.0;
    double commitCreditJ_ = 0.0;

    Mode mode_ = Mode::kNominal;
    double score_ = 0.0;
    bool aboveSuspicion_ = false;  ///< anomaly-edge latch (traced once)
    int calmRun_ = 0;
    // Relapse-hardened hysteresis: dwell doublings earned by
    // re-escalating soon after a de-escalation, and the (saturating)
    // sample count since the last de-escalation.
    int relapseLevel_ = 0;
    std::uint64_t sinceDeescalation_ = ~std::uint64_t{0};

    double lastSampleT_ = -1.0;
    double lastSampleV_ = -1.0;
    // Edge-skew reconciliation windows (one per edge kind).
    PendingEdge pendingBackup_;
    PendingEdge pendingWake_;

    // Ratchet state.
    std::uint32_t lastRollbackRegion_ = ~std::uint32_t{0};
    std::uint64_t consecutiveRollbacks_ = 0;
    std::uint64_t lastCommitCount_ = 0;
    /// Commit count at the previous rollback: distinguishes a redo of
    /// the rolled-back region (not progress) from the frontier moving.
    std::uint64_t commitCountAtRollback_ = 0;
    /// Set by a rollback: the next commit is the redo of the
    /// rolled-back region and earns no energy-debt credit.
    bool redoCommitPending_ = false;
    bool committedSinceDegrade_ = false;

    // Recharge dwell (kDegraded wake gate).
    double wakeNotBefore_ = -1.0;

    DefenseStats stats_;
};

inline int
DefenseController::trackEdge(PendingEdge& pending, bool primaryPulse,
                             bool shadowPulse, std::uint64_t& skews) const
{
    if (primaryPulse && shadowPulse) {
        // Simultaneous agreement; nothing pending can be forged skew.
        pending = PendingEdge{};
        return 0;
    }
    if (primaryPulse != shadowPulse) {
        const int lead = primaryPulse ? 1 : -1;
        if (pending.lead == -lead) {
            // The other monitor confirmed the earlier pulse: benign
            // sampling skew at a real crossing, not evidence.
            ++skews;
            pending = PendingEdge{};
            return 0;
        }
        // Same-side repeat (sustained forged trough): the previous
        // pulse is now unconfirmable — charge it and re-arm.
        const int matured = pending.lead == lead ? 1 : 0;
        pending.lead = lead;
        pending.age = 0;
        return matured;
    }
    // Quiet sample: age the window; an unmatched pulse matures into a
    // disagreement charge once the skew grace is exhausted.
    if (pending.lead != 0 && ++pending.age > config_.edgeSkewSamples) {
        pending = PendingEdge{};
        return 1;
    }
    return 0;
}

inline bool
DefenseController::stepSample(double t, double vLo, double vHi,
                              const analog::MonitorEvent& primary,
                              const analog::MonitorEvent& shadow)
{
    // observeSample's order, deciding every transition before any
    // field is written.
    const double mid = 0.5 * (vLo + vHi);
    bool physics = false;
    if (lastSampleT_ >= 0.0 && t > lastSampleT_) {
        const double bound =
            (t - lastSampleT_) * maxSlewVps_ + config_.physicsMarginV;
        physics = (vHi - vLo) > bound || std::abs(mid - lastSampleV_) > bound;
    }
    const bool disagree =
        primary.backup != shadow.backup || primary.wake != shadow.wake;
    PendingEdge backup = pendingBackup_;
    PendingEdge wake = pendingWake_;
    std::uint64_t skews = 0;
    int charges = 0;
    if (config_.edgeSkewSamples <= 0)
        charges = disagree ? 1 : 0;
    else
        charges = trackEdge(backup, primary.backup, shadow.backup, skews) +
                  trackEdge(wake, primary.wake, shadow.wake, skews);

    // decayAndMaybeDeescalate, stepped exactly as it is there.
    double score = std::max(0.0, score_ * (1.0 - config_.decayPerSample));
    const bool latched = aboveSuspicion_ && !(score < config_.scoreClear);
    int calm = calmRun_;
    if (score > config_.scoreClear) {
        calm = 0;
    } else if (mode_ == Mode::kNominal) {
        if (relapseLevel_ > 0 && ++calm >= calmDwell())
            return false;  // forgives a relapse level
    } else if (++calm >= calmDwell()) {
        if (mode_ != Mode::kDegraded || committedSinceDegrade_)
            return false;  // steps one mode down
        calm = 0;
    }

    // addEvidence per charge, physics first: refused where it would set
    // the anomaly latch or escalate past the current mode.
    const auto charge = [&](double weight) {
        score = std::min(score + weight, config_.scoreMax);
        if (score >= config_.scoreAttack)
            return Mode::kUnderAttack <= mode_ &&
                   (latched || score < config_.scoreSuspicious);
        if (score >= config_.scoreSuspicious)
            return latched && Mode::kSuspicious <= mode_;
        return true;
    };
    if (physics && !charge(config_.physicsWeight))
        return false;
    for (int i = 0; i < charges; ++i)
        if (!charge(config_.disagreeWeight))
            return false;
    if (physics || charges > 0)
        calm = 0;

    ++stats_.samples;
    if (sinceDeescalation_ != ~std::uint64_t{0})
        ++sinceDeescalation_;
    if (physics)
        ++stats_.physicsViolations;
    if (disagree)
        ++stats_.disagreements;
    stats_.edgeSkews += skews;
    score_ = score;
    aboveSuspicion_ = latched;
    calmRun_ = calm;
    pendingBackup_ = backup;
    pendingWake_ = wake;
    lastSampleT_ = t;
    lastSampleV_ = mid;
    return true;
}

}  // namespace gecko::defense

#endif  // GECKO_DEFENSE_CONTROLLER_HPP_
