#include "defense/controller.hpp"

#include <algorithm>
#include <cmath>

#include "campaign/archive.hpp"
#include "trace/trace.hpp"

namespace gecko::defense {

namespace {

/** Score in integer milli-units for trace payloads (clamped at 0). */
[[maybe_unused]] std::uint64_t
traceScore(double s)
{
    return s > 0 ? static_cast<std::uint64_t>(std::llround(s * 1000.0)) : 0;
}

}  // namespace

bool
presetByName(const std::string& name, DefenseConfig* out)
{
    if (name == "static") {
        *out = DefenseConfig{};
        return true;
    }
    if (name == "adaptive") {
        DefenseConfig config;
        config.enabled = true;
        *out = config;
        return true;
    }
    if (name == "strict") {
        DefenseConfig config;
        config.enabled = true;
        config.scoreSuspicious = 0.7;
        config.scoreAttack = 1.8;
        config.calmSamples = 96;
        config.rollbackBudgetPerRegion = 2;
        config.backoffCapCycles = 16384;
        *out = config;
        return true;
    }
    return false;
}

const char*
modeName(Mode mode)
{
    switch (mode) {
      case Mode::kNominal:
        return "nominal";
      case Mode::kSuspicious:
        return "suspicious";
      case Mode::kUnderAttack:
        return "under_attack";
      case Mode::kDegraded:
        return "degraded";
    }
    return "unknown";
}

DefenseController::DefenseController(const DefenseConfig& config,
                                     const PlantModel& plant)
    : config_(config), plant_(plant)
{
    // Legitimate dV/dt is bounded by the plant: the CPU discharging the
    // buffer at worst-case active power, plus the harvester charging it
    // through the Thevenin source resistance.  EMI couples volts into
    // the *monitor*, not the rail, so a seen excursion beyond this bound
    // (plus margin) is physical evidence of a forged reading.
    const double c = std::max(plant.capacitanceF, 1e-12);
    const double dischargeSlew =
        plant.energyPerCycleJ * plant.clockHz / (c * std::max(plant.vOff, 0.1));
    const double chargeSlew =
        plant.maxV / (std::max(plant.sourceResistance, 1e-3) * c);
    maxSlewVps_ = dischargeSlew + chargeSlew;

    debtBudgetJ_ =
        config.energyDebtBudgetJ > 0
            ? config.energyDebtBudgetJ
            : 8.0 * 0.5 * c * (plant.vOn * plant.vOn -
                               plant.vOff * plant.vOff);
    commitCreditJ_ = config.commitCreditJ > 0 ? config.commitCreditJ
                                              : plant.bootEnergyJ;
}

void
DefenseController::setMode(double t, Mode next)
{
    if (next == mode_)
        return;
    const Mode prev = mode_;
    mode_ = next;
    if (next > prev) {
        ++stats_.escalations;
        if (stats_.firstEscalationT < 0)
            stats_.firstEscalationT = t;
        // Relapse: escalating again soon after we calmed down.  Each
        // one doubles the calm dwell (capped), so an attacker
        // duty-cycled to just outlast the hysteresis loses the race —
        // its off-time requirement grows geometrically while its
        // disruption stays fixed.
        if (prev == Mode::kNominal && config_.relapseWindowSamples > 0 &&
            sinceDeescalation_ <
                static_cast<std::uint64_t>(config_.relapseWindowSamples)) {
            relapseLevel_ =
                std::min(relapseLevel_ + 1, config_.relapseLevelCap);
            ++stats_.relapses;
        }
    } else {
        ++stats_.deEscalations;
        sinceDeescalation_ = 0;
    }
    if (next == Mode::kDegraded)
        committedSinceDegrade_ = false;
    if (next < Mode::kDegraded)
        wakeNotBefore_ = -1.0;
    calmRun_ = 0;
    GECKO_TRACE_EVENT(trace::EventKind::kDefenseModeChange, 0,
                      static_cast<std::uint64_t>(next),
                      static_cast<std::uint64_t>(prev));
}

void
DefenseController::escalateTo(double t, Mode target)
{
    if (target > mode_)
        setMode(t, target);
}

void
DefenseController::tripRatchet(double t,
                               [[maybe_unused]] std::uint32_t regionId,
                               [[maybe_unused]] std::uint64_t count)
{
    ++stats_.ratchetTrips;
    GECKO_TRACE_EVENT(trace::EventKind::kDefenseRatchetTrip, 0,
                      static_cast<std::uint64_t>(regionId), count);
    escalateTo(t, Mode::kDegraded);
}

void
DefenseController::addEvidence(double t, double weight,
                               [[maybe_unused]] std::uint64_t evidence)
{
    score_ = std::min(score_ + weight, config_.scoreMax);
    calmRun_ = 0;
    if (!aboveSuspicion_ && score_ >= config_.scoreSuspicious) {
        aboveSuspicion_ = true;
        ++stats_.anomalies;
        GECKO_TRACE_EVENT(trace::EventKind::kDefenseAnomaly, 0,
                          traceScore(score_), evidence);
    }
    if (score_ >= config_.scoreAttack)
        escalateTo(t, Mode::kUnderAttack);
    else if (score_ >= config_.scoreSuspicious)
        escalateTo(t, Mode::kSuspicious);
}

int
DefenseController::trackEdge(PendingEdge& pending, bool primaryPulse,
                             bool shadowPulse)
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
            ++stats_.edgeSkews;
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

void
DefenseController::decayAndMaybeDeescalate(double t)
{
    score_ = std::max(0.0, score_ * (1.0 - config_.decayPerSample));
    if (score_ < config_.scoreClear)
        aboveSuspicion_ = false;
    if (score_ > config_.scoreClear) {
        calmRun_ = 0;
        return;
    }
    if (mode_ == Mode::kNominal) {
        // Sustained nominal calm forgives one relapse level per calm
        // dwell — a one-off incident doesn't tax the node forever.
        if (relapseLevel_ > 0 && ++calmRun_ >= calmDwell()) {
            --relapseLevel_;
            calmRun_ = 0;
        }
        return;
    }
    if (++calmRun_ < calmDwell())
        return;
    // One level per calm dwell — the hysteresis that keeps an attacker
    // from flapping the policy with a 50% duty-cycle tone.  Leaving
    // kDegraded additionally requires proven forward progress.
    if (mode_ == Mode::kDegraded && !committedSinceDegrade_) {
        calmRun_ = 0;
        return;
    }
    setMode(t, static_cast<Mode>(static_cast<std::uint8_t>(mode_) - 1));
}

void
DefenseController::observeSample(double t, double vLo, double vHi,
                                 const analog::MonitorEvent& primary,
                                 const analog::MonitorEvent& shadow)
{
    ++stats_.samples;
    if (sinceDeescalation_ != ~std::uint64_t{0})
        ++sinceDeescalation_;
    std::uint64_t evidence = 0;

    if (lastSampleT_ >= 0.0 && t > lastSampleT_) {
        // Legitimate motion since the previous sample is bounded by the
        // RC physics; both the within-window envelope span and the
        // between-sample step must fit it.
        const double bound =
            (t - lastSampleT_) * maxSlewVps_ + config_.physicsMarginV;
        const double mid = 0.5 * (vLo + vHi);
        if ((vHi - vLo) > bound || std::abs(mid - lastSampleV_) > bound) {
            evidence |= kEvidencePhysics;
            ++stats_.physicsViolations;
        }
    }
    if (primary.backup != shadow.backup || primary.wake != shadow.wake) {
        evidence |= kEvidenceDisagree;
        ++stats_.disagreements;
    }

    decayAndMaybeDeescalate(t);
    if (evidence & kEvidencePhysics)
        addEvidence(t, config_.physicsWeight, evidence);
    if (config_.edgeSkewSamples <= 0) {
        if (evidence & kEvidenceDisagree)
            addEvidence(t, config_.disagreeWeight, evidence);
    } else {
        // Edge-skew reconciliation: a lone pulse waits for the other
        // monitor's matching pulse before it becomes evidence, so the
        // one-sample trip skew at a genuine supply crossing (ADC
        // quantization vs comparator hysteresis) stops scoring as
        // forgery.  Unmatched pulses still mature into the full
        // disagreement weight when the window closes.
        int charges = trackEdge(pendingBackup_, primary.backup,
                                shadow.backup) +
                      trackEdge(pendingWake_, primary.wake, shadow.wake);
        for (int i = 0; i < charges; ++i)
            addEvidence(t, config_.disagreeWeight,
                        evidence | kEvidenceDisagree);
    }

    lastSampleT_ = t;
    lastSampleV_ = 0.5 * (vLo + vHi);
}

void
DefenseController::noteBootEvidence(double t, bool ackDetect,
                                    bool timerDetect)
{
    if (!ackDetect && !timerDetect)
        return;
    const double w = config_.bootEvidenceWeight *
                     ((ackDetect ? 1 : 0) + (timerDetect ? 1 : 0));
    addEvidence(t, w, kEvidenceBoot);
}

void
DefenseController::noteRollback(double t, std::uint32_t regionId)
{
    // Progress test: a recovery that merely re-commits the rolled-back
    // region before dying again (one commit per power cycle) is a
    // livelock, not progress — the commit counter advances while the
    // frontier stays put.  Only >=2 commits since the previous rollback
    // (the redo plus something new) re-arm the budget.
    const std::uint64_t commitsSince =
        lastCommitCount_ - commitCountAtRollback_;
    commitCountAtRollback_ = lastCommitCount_;
    redoCommitPending_ = true;
    if (regionId == lastRollbackRegion_ && commitsSince <= 1) {
        ++consecutiveRollbacks_;
    } else {
        lastRollbackRegion_ = regionId;
        consecutiveRollbacks_ = 1;
    }
    if (mode_ != Mode::kDegraded &&
        consecutiveRollbacks_ >
            static_cast<std::uint64_t>(config_.rollbackBudgetPerRegion))
        tripRatchet(t, regionId, consecutiveRollbacks_);
}

void
DefenseController::noteCommit(std::uint64_t commitCount)
{
    if (commitCount <= lastCommitCount_)
        return;
    std::uint64_t committed = commitCount - lastCommitCount_;
    lastCommitCount_ = commitCount;
    // The first commit after a rollback merely redoes the rolled-back
    // region: the frontier hasn't moved, so it earns no credit.
    // Without this gate an outage-phase-locked burst that forces one
    // rollback per power cycle farms a boot-quantum of credit from
    // every redo and the debt ledger never trips.
    if (redoCommitPending_) {
        redoCommitPending_ = false;
        --committed;
    }
    // Each committed region pays one boot-quantum of debt back.  The
    // credit is bounded (not a wholesale clear) so an attack that lets
    // a trickle of progress through cannot keep the ledger from
    // integrating its boot churn.  The rollback budget re-arms in
    // noteRollback, which can tell a redo-commit from real progress.
    stats_.energyDebtJ = std::max(
        0.0, stats_.energyDebtJ -
                 commitCreditJ_ * static_cast<double>(committed));
    if (mode_ == Mode::kDegraded)
        committedSinceDegrade_ = true;
}

void
DefenseController::noteRetriesExhausted(double t)
{
    addEvidence(t, config_.scoreAttack, kEvidenceRetries);
    // Persistent save failures mean the NVM write path itself is being
    // disturbed: go straight to the ratcheted rollback-only mode.
    escalateTo(t, Mode::kDegraded);
}

void
DefenseController::noteSleepEnter(double t, double fullChargeEstS)
{
    if (mode_ == Mode::kDegraded && fullChargeEstS >= 0.0)
        wakeNotBefore_ = t + fullChargeEstS;
    else
        wakeNotBefore_ = -1.0;
}

void
DefenseController::noteEnergyCost(double t, double joules)
{
    stats_.energyDebtJ += joules;
    stats_.peakEnergyDebtJ =
        std::max(stats_.peakEnergyDebtJ, stats_.energyDebtJ);
    if (mode_ != Mode::kDegraded && stats_.energyDebtJ > debtBudgetJ_)
        tripRatchet(t, lastRollbackRegion_, consecutiveRollbacks_);
}

bool
DefenseController::wakeAllowed(double t)
{
    if (mode_ != Mode::kDegraded || wakeNotBefore_ < 0.0)
        return true;
    if (t >= wakeNotBefore_ - 1e-12)
        return true;
    ++stats_.wakesDeferred;
    return false;
}

int
DefenseController::backoffCycles(int attempt) const
{
    const int a = std::max(attempt, 0);
    if (mode_ == Mode::kNominal)
        return config_.backoffBaseCycles * (a + 1);
    const int shift = std::min(a, 20);
    const long long exp =
        static_cast<long long>(config_.backoffBaseCycles) << shift;
    return static_cast<int>(
        std::min<long long>(exp, config_.backoffCapCycles));
}

void
DefenseController::archiveState(campaign::Archive& ar)
{
    ar.section("defense_controller");
    std::uint8_t mode = static_cast<std::uint8_t>(mode_);
    ar.u8(mode);
    if (!ar.saving()) {
        if (mode > static_cast<std::uint8_t>(Mode::kDegraded))
            throw campaign::SnapshotError("defense: bad mode encoding");
        mode_ = static_cast<Mode>(mode);
    }
    ar.f64(score_);
    ar.boolean(aboveSuspicion_);
    ar.i32(calmRun_);
    ar.i32(relapseLevel_);
    ar.u64(sinceDeescalation_);
    ar.boolean(redoCommitPending_);
    ar.f64(lastSampleT_);
    ar.f64(lastSampleV_);
    ar.i32(pendingBackup_.lead);
    ar.i32(pendingBackup_.age);
    ar.i32(pendingWake_.lead);
    ar.i32(pendingWake_.age);
    ar.u32(lastRollbackRegion_);
    ar.u64(consecutiveRollbacks_);
    ar.u64(lastCommitCount_);
    ar.u64(commitCountAtRollback_);
    ar.boolean(committedSinceDegrade_);
    ar.f64(wakeNotBefore_);
    ar.u64(stats_.samples);
    ar.u64(stats_.anomalies);
    ar.u64(stats_.disagreements);
    ar.u64(stats_.edgeSkews);
    ar.u64(stats_.physicsViolations);
    ar.u64(stats_.escalations);
    ar.u64(stats_.deEscalations);
    ar.u64(stats_.ratchetTrips);
    ar.u64(stats_.relapses);
    ar.u64(stats_.wakesDeferred);
    ar.f64(stats_.firstEscalationT);
    ar.f64(stats_.energyDebtJ);
    ar.f64(stats_.peakEnergyDebtJ);
}

}  // namespace gecko::defense
