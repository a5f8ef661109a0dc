#include <gtest/gtest.h>

#include <vector>

#include "campaign/archive.hpp"
#include "defense/controller.hpp"
#include "exp/rng.hpp"

/**
 * Unit tests of the adaptive defense controller (DESIGN.md §11): the
 * anomaly-scoring escalation ladder, the hysteretic de-escalation, the
 * forward-progress ratchet, the escalated save backoff, and the
 * kDegraded recharge-dwell wake gate.  The controller is pure state, so
 * every test drives it directly with synthetic observations.
 */

namespace gecko::defense {
namespace {

DefenseConfig
fastConfig()
{
    DefenseConfig config;
    config.enabled = true;
    config.calmSamples = 4;
    config.decayPerSample = 0.2;
    return config;
}

/** Feed one physics-violating sample (a step far beyond the RC bound). */
void
violate(DefenseController& dc, double& t, double& v)
{
    analog::MonitorEvent ev;
    t += 1e-5;
    v = (v > 2.0) ? 0.5 : 3.3;  // volt-scale jump every call
    dc.observeSample(t, v, v, ev, ev);
}

/** Feed one calm sample (no motion, agreeing views). */
void
calm(DefenseController& dc, double& t, double v)
{
    analog::MonitorEvent ev;
    t += 1e-5;
    dc.observeSample(t, v, v, ev, ev);
}

TEST(DefenseTest, ModeNamesAreStable)
{
    EXPECT_STREQ(modeName(Mode::kNominal), "nominal");
    EXPECT_STREQ(modeName(Mode::kSuspicious), "suspicious");
    EXPECT_STREQ(modeName(Mode::kUnderAttack), "under_attack");
    EXPECT_STREQ(modeName(Mode::kDegraded), "degraded");
}

TEST(DefenseTest, CleanSamplesNeverEscalate)
{
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0;
    analog::MonitorEvent ev;
    // A legitimate discharge ramp: small steps well inside the physics
    // bound, both monitor views agreeing.
    double v = 3.0;
    for (int i = 0; i < 1000; ++i) {
        dc.observeSample(t, v, v, ev, ev);
        t += 1e-5;
        v -= 1e-5;
    }
    EXPECT_EQ(dc.mode(), Mode::kNominal);
    EXPECT_EQ(dc.stats().escalations, 0u);
    EXPECT_EQ(dc.stats().anomalies, 0u);
    EXPECT_TRUE(dc.jitAllowed());
}

TEST(DefenseTest, PhysicsViolationsEscalateThroughLadder)
{
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0, v = 3.0;
    calm(dc, t, v);  // baseline sample
    violate(dc, t, v);
    EXPECT_EQ(dc.mode(), Mode::kSuspicious);  // one hit crosses 1.0
    EXPECT_TRUE(dc.jitAllowed());             // guarded JIT still on
    while (dc.mode() != Mode::kUnderAttack)
        violate(dc, t, v);
    EXPECT_FALSE(dc.jitAllowed());
    EXPECT_GE(dc.stats().physicsViolations, 2u);
    EXPECT_EQ(dc.stats().anomalies, 1u);  // edge-latched, traced once
    EXPECT_GE(dc.stats().firstEscalationT, 0.0);
}

TEST(DefenseTest, MonitorDisagreementIsEvidence)
{
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0;
    analog::MonitorEvent primary, shadow;
    primary.backup = true;  // shadow channel saw no backup edge
    for (int i = 0; i < 10; ++i) {
        dc.observeSample(t, 3.0, 3.0, primary, shadow);
        t += 1e-5;
    }
    EXPECT_GE(dc.stats().disagreements, 10u);
    EXPECT_GE(dc.mode(), Mode::kSuspicious);
}

TEST(DefenseTest, SkewedEdgePairReconcilesAsBenign)
{
    // A genuine supply crossing (e.g. the wake ramp after a harvester
    // outage): the primary monitor trips the edge one sample before the
    // shadow does.  That pair must reconcile as sampling skew, not
    // score as forgery — this was a strict-preset false positive.
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0;
    analog::MonitorEvent none, primaryWake, shadowWake;
    primaryWake.wake = true;
    shadowWake.wake = true;
    for (int edge = 0; edge < 8; ++edge) {
        dc.observeSample(t += 1e-5, 3.0, 3.0, primaryWake, none);
        dc.observeSample(t += 1e-5, 3.0, 3.0, none, shadowWake);
        for (int i = 0; i < 20; ++i)
            dc.observeSample(t += 1e-5, 3.0, 3.0, none, none);
    }
    EXPECT_EQ(dc.stats().edgeSkews, 8u);
    EXPECT_EQ(dc.stats().disagreements, 16u);  // raw mismatches counted
    EXPECT_EQ(dc.stats().escalations, 0u);
    EXPECT_EQ(dc.stats().anomalies, 0u);
    EXPECT_EQ(dc.mode(), Mode::kNominal);
}

TEST(DefenseTest, UnmatchedEdgePulseMaturesIntoEvidence)
{
    // A forged trough couples into only one sensing path: the pulse is
    // never confirmed, so it must still charge the disagreement weight
    // once the one-sample skew grace closes — a one-sample detection
    // latency, never a free pass.
    DefenseController dc(fastConfig(), PlantModel{});
    double t = 0.0;
    analog::MonitorEvent none, forged;
    forged.backup = true;  // only the shadow comparator sees the trough
    dc.observeSample(t += 1e-5, 3.0, 3.0, none, forged);
    EXPECT_EQ(dc.score(), 0.0);  // held pending, not yet evidence
    dc.observeSample(t += 1e-5, 3.0, 3.0, none, none);
    EXPECT_EQ(dc.score(), 0.0);  // still inside the skew grace
    dc.observeSample(t += 1e-5, 3.0, 3.0, none, none);
    EXPECT_GT(dc.score(), 0.0);  // grace closed: charged in full
    EXPECT_EQ(dc.stats().edgeSkews, 0u);
    EXPECT_EQ(dc.stats().disagreements, 1u);

    // Sustained forgery (a pulse every sample) charges every sample
    // after the first: the ladder still escalates.
    for (int i = 0; i < 20; ++i)
        dc.observeSample(t += 1e-5, 3.0, 3.0, none, forged);
    EXPECT_GE(dc.mode(), Mode::kSuspicious);
    EXPECT_EQ(dc.stats().edgeSkews, 0u);
}

TEST(DefenseTest, EdgeSkewZeroRestoresImmediateCharging)
{
    DefenseConfig config = fastConfig();
    config.edgeSkewSamples = 0;
    DefenseController dc(config, PlantModel{});
    double t = 0.0;
    analog::MonitorEvent none, primaryWake, shadowWake;
    primaryWake.wake = true;
    shadowWake.wake = true;
    // The same benign skewed pair now charges both samples immediately.
    dc.observeSample(t += 1e-5, 3.0, 3.0, primaryWake, none);
    dc.observeSample(t += 1e-5, 3.0, 3.0, none, shadowWake);
    EXPECT_EQ(dc.stats().edgeSkews, 0u);
    EXPECT_EQ(dc.stats().disagreements, 2u);
    EXPECT_GT(dc.score(), 0.0);
}

TEST(DefenseTest, HysteresisStepsDownOneLevelPerCalmDwell)
{
    DefenseConfig config = fastConfig();
    DefenseController dc(config, PlantModel{});
    double t = 0.0, v = 3.0;
    calm(dc, t, v);
    while (dc.mode() != Mode::kUnderAttack)
        violate(dc, t, v);

    // Decay to below scoreClear, then count the calm dwell per level.
    int toSuspicious = 0;
    while (dc.mode() == Mode::kUnderAttack) {
        calm(dc, t, v);
        ++toSuspicious;
    }
    EXPECT_EQ(dc.mode(), Mode::kSuspicious);
    EXPECT_GE(toSuspicious, config.calmSamples);
    // The next level needs a *fresh* dwell — strictly more samples.
    int toNominal = 0;
    while (dc.mode() == Mode::kSuspicious) {
        calm(dc, t, v);
        ++toNominal;
    }
    EXPECT_EQ(dc.mode(), Mode::kNominal);
    EXPECT_EQ(toNominal, config.calmSamples);
    EXPECT_EQ(dc.stats().deEscalations, 2u);
}

TEST(DefenseTest, RatchetTripsOnStuckRegion)
{
    DefenseController dc(fastConfig(), PlantModel{});
    // Budget is 4 consecutive rollbacks of one region; the 5th trips.
    for (int i = 0; i < 4; ++i)
        dc.noteRollback(0.1 * i, 7);
    EXPECT_EQ(dc.stats().ratchetTrips, 0u);
    EXPECT_NE(dc.mode(), Mode::kDegraded);
    dc.noteRollback(0.5, 7);
    EXPECT_EQ(dc.stats().ratchetTrips, 1u);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_FALSE(dc.jitAllowed());
}

TEST(DefenseTest, RedoCommitDoesNotReArmRatchet)
{
    // The livelock signature: every power cycle re-commits the
    // rolled-back region once, then dies again.  The commit counter
    // moves but the frontier does not — the budget must still trip.
    DefenseController dc(fastConfig(), PlantModel{});
    std::uint64_t commits = 0;
    for (int i = 0; i < 5; ++i) {
        dc.noteRollback(0.1 * i, 7);
        dc.noteCommit(++commits);  // the redo commit
    }
    EXPECT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_EQ(dc.stats().ratchetTrips, 1u);
}

TEST(DefenseTest, RealProgressReArmsRatchet)
{
    // Two or more commits per power cycle (the redo plus new work) is
    // forward progress: the budget re-arms and never trips.
    DefenseController dc(fastConfig(), PlantModel{});
    std::uint64_t commits = 0;
    for (int i = 0; i < 50; ++i) {
        dc.noteRollback(0.1 * i, 7);
        commits += 2;
        dc.noteCommit(commits);
    }
    EXPECT_EQ(dc.stats().ratchetTrips, 0u);
    EXPECT_NE(dc.mode(), Mode::kDegraded);
}

TEST(DefenseTest, EnergyDebtLedgerTripsAndCommitsPayBack)
{
    DefenseConfig config = fastConfig();
    config.energyDebtBudgetJ = 1e-3;
    PlantModel plant;
    plant.bootEnergyJ = 1e-4;  // commit credit quantum
    DefenseController dc(config, plant);

    // Nine boots' worth of waste with one commit in between: the commit
    // pays exactly one quantum back, so the tenth pushes past budget.
    for (int i = 0; i < 9; ++i)
        dc.noteEnergyCost(0.01 * i, 1e-4);
    dc.noteCommit(1);
    EXPECT_NEAR(dc.stats().energyDebtJ, 8e-4, 1e-12);
    EXPECT_EQ(dc.stats().ratchetTrips, 0u);
    dc.noteEnergyCost(0.2, 1.5e-4);
    dc.noteEnergyCost(0.3, 1.5e-4);
    EXPECT_EQ(dc.stats().ratchetTrips, 1u);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_GT(dc.stats().peakEnergyDebtJ, 1e-3);
}

TEST(DefenseTest, RetriesExhaustedDegradesDirectly)
{
    DefenseController dc(fastConfig(), PlantModel{});
    dc.noteRetriesExhausted(1.0);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);
    EXPECT_FALSE(dc.jitAllowed());
}

TEST(DefenseTest, DegradedExitRequiresProvenProgress)
{
    DefenseConfig config = fastConfig();
    DefenseController dc(config, PlantModel{});
    double t = 0.0, v = 3.0;
    dc.noteRetriesExhausted(t);
    ASSERT_EQ(dc.mode(), Mode::kDegraded);

    // Calm alone is not enough: without a commit since entering
    // kDegraded the controller refuses to step down.
    for (int i = 0; i < 20 * config.calmSamples; ++i)
        calm(dc, t, v);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);

    dc.noteCommit(1);
    while (dc.mode() != Mode::kNominal)
        calm(dc, t, v);
    EXPECT_EQ(dc.stats().deEscalations, 3u);
    EXPECT_TRUE(dc.jitAllowed());
}

TEST(DefenseTest, BackoffLinearNominalExponentialEscalated)
{
    DefenseConfig config = fastConfig();
    DefenseController dc(config, PlantModel{});
    // Nominal preserves the legacy linear policy.
    EXPECT_EQ(dc.backoffCycles(0), 256);
    EXPECT_EQ(dc.backoffCycles(1), 512);
    EXPECT_EQ(dc.backoffCycles(2), 768);

    double t = 0.0, v = 3.0;
    calm(dc, t, v);
    violate(dc, t, v);
    ASSERT_EQ(dc.mode(), Mode::kSuspicious);
    // Escalated: exponential with a cap, immune to shift overflow.
    EXPECT_EQ(dc.backoffCycles(0), 256);
    EXPECT_EQ(dc.backoffCycles(1), 512);
    EXPECT_EQ(dc.backoffCycles(2), 1024);
    EXPECT_EQ(dc.backoffCycles(5), 8192);
    EXPECT_EQ(dc.backoffCycles(63), 8192);
}

TEST(DefenseTest, WakeDwellGatesOnlyDegraded)
{
    DefenseController dc(fastConfig(), PlantModel{});
    // Outside kDegraded the dwell never arms.
    dc.noteSleepEnter(0.0, 0.5);
    EXPECT_TRUE(dc.wakeAllowed(0.1));
    EXPECT_EQ(dc.stats().wakesDeferred, 0u);

    dc.noteRetriesExhausted(0.2);
    ASSERT_EQ(dc.mode(), Mode::kDegraded);
    dc.noteSleepEnter(1.0, 0.5);  // recharge estimate: ready at 1.5
    EXPECT_FALSE(dc.wakeAllowed(1.1));
    EXPECT_FALSE(dc.wakeAllowed(1.49));
    EXPECT_TRUE(dc.wakeAllowed(1.5));
    EXPECT_TRUE(dc.wakeAllowed(2.0));
    EXPECT_EQ(dc.stats().wakesDeferred, 2u);

    // An unreachable threshold (negative estimate) must not deadlock
    // the node: the gate stays open.
    dc.noteSleepEnter(3.0, -1.0);
    EXPECT_TRUE(dc.wakeAllowed(3.0));
}

TEST(DefenseTest, RelapseDoublesCalmDwell)
{
    // The adversarial-search signature: a duty-cycled tone that goes
    // quiet for exactly one calm dwell, lets the controller de-escalate
    // to nominal, then re-attacks.  Each such relapse must double the
    // dwell so the attacker's required off-time grows geometrically.
    DefenseConfig config = fastConfig();
    config.relapseWindowSamples = 64;
    DefenseController dc(config, PlantModel{});
    double t = 0.0, v = 3.0;

    auto escalate = [&] {
        while (dc.mode() == Mode::kNominal)
            violate(dc, t, v);
    };
    auto calmToNominal = [&] {
        int n = 0;
        while (dc.mode() != Mode::kNominal) {
            calm(dc, t, v);
            ++n;
        }
        return n;
    };

    escalate();
    const int firstDwell = calmToNominal();
    escalate();  // relapse #1: within the window of the de-escalation
    EXPECT_EQ(dc.stats().relapses, 1u);
    const int secondDwell = calmToNominal();
    // The doubled dwell dominates the decay samples, so the relapse
    // path takes measurably longer to calm down.
    EXPECT_GE(secondDwell, firstDwell + config.calmSamples);
    escalate();  // relapse #2 doubles again
    EXPECT_EQ(dc.stats().relapses, 2u);
    const int thirdDwell = calmToNominal();
    EXPECT_GE(thirdDwell, secondDwell + 2 * config.calmSamples);
}

TEST(DefenseTest, RelapseLevelIsCappedAndForgiven)
{
    DefenseConfig config = fastConfig();
    config.relapseWindowSamples = 64;
    config.relapseLevelCap = 2;
    DefenseController dc(config, PlantModel{});
    double t = 0.0, v = 3.0;

    for (int round = 0; round < 5; ++round) {
        while (dc.mode() == Mode::kNominal)
            violate(dc, t, v);
        while (dc.mode() != Mode::kNominal)
            calm(dc, t, v);
    }
    // 4 relapses happened but the dwell stops doubling at the cap.
    EXPECT_EQ(dc.stats().relapses, 4u);

    // A long clean stretch forgives the penalty: after it, escalating
    // again is no longer treated as a relapse-dwell marathon.  Relapse
    // *counting* still works (the de-escalation was recent relative to
    // a fresh attack), so measure via the dwell, not the counter.
    for (int i = 0; i < 64 * 64; ++i)
        calm(dc, t, v);
    while (dc.mode() == Mode::kNominal)
        violate(dc, t, v);
    int dwell = 0;
    while (dc.mode() != Mode::kNominal) {
        calm(dc, t, v);
        ++dwell;
    }
    // Forgiven to level 0, the fresh incident re-escalates one relapse
    // level (the counter window is sample-based), so the dwell is at
    // most the one-doubling cost — far below the capped 4x dwell.
    EXPECT_LT(dwell, 3 * 2 * config.calmSamples);
}

TEST(DefenseTest, RedoCreditGateTripsLedgerOnRedoOnlyCycles)
{
    // Each power cycle: one boot's waste, one rollback, one redo
    // commit, NO new progress.  Pre-hardening every redo earned a
    // boot-quantum credit, so debt stayed at zero forever; with the
    // gate the ledger integrates one quantum per cycle and trips.
    DefenseConfig config = fastConfig();
    config.energyDebtBudgetJ = 1e-3;
    config.rollbackBudgetPerRegion = 1000;  // isolate the ledger path
    PlantModel plant;
    plant.bootEnergyJ = 1e-4;
    DefenseController dc(config, plant);
    std::uint64_t commits = 0;
    for (int i = 0; i < 10; ++i) {
        dc.noteEnergyCost(0.01 * i, 1e-4);
        dc.noteRollback(0.01 * i + 1e-3, 3);
        dc.noteCommit(++commits);
    }
    EXPECT_GE(dc.stats().ratchetTrips, 1u);
    EXPECT_EQ(dc.mode(), Mode::kDegraded);

    // Control: the same cycles with genuine progress (two commits per
    // cycle) pay the debt down and never trip.
    DefenseController ok(config, plant);
    commits = 0;
    for (int i = 0; i < 10; ++i) {
        ok.noteEnergyCost(0.01 * i, 1e-4);
        ok.noteRollback(0.01 * i + 1e-3, 3);
        commits += 2;
        ok.noteCommit(commits);
    }
    EXPECT_EQ(ok.stats().ratchetTrips, 0u);
}

// ---------------------------------------------------------------------
// The inline per-sample step (stepSample) against the reference
// observeSample, from controller states built field by field through
// the archive.
// ---------------------------------------------------------------------

/** Every archived controller field, in archiveState's order. */
struct ArchivedState {
    std::uint8_t mode = 0;
    double score = 0.0;
    bool aboveSuspicion = false;
    std::int32_t calmRun = 0;
    std::int32_t relapseLevel = 0;
    std::uint64_t sinceDeescalation = ~std::uint64_t{0};
    bool redoCommitPending = false;
    double lastSampleT = -1.0;
    double lastSampleV = -1.0;
    std::int32_t backupLead = 0;
    std::int32_t backupAge = 0;
    std::int32_t wakeLead = 0;
    std::int32_t wakeAge = 0;
    std::uint32_t lastRollbackRegion = ~std::uint32_t{0};
    std::uint64_t consecutiveRollbacks = 0;
    std::uint64_t lastCommitCount = 0;
    std::uint64_t commitCountAtRollback = 0;
    bool committedSinceDegrade = false;
    double wakeNotBefore = -1.0;
    std::uint64_t counters[10] = {};
    double firstEscalationT = -1.0;
    double energyDebtJ = 0.0;
    double peakEnergyDebtJ = 0.0;
};

void
archiveFields(campaign::Archive& ar, ArchivedState& s)
{
    ar.section("defense_controller");
    ar.u8(s.mode);
    ar.f64(s.score);
    ar.boolean(s.aboveSuspicion);
    ar.i32(s.calmRun);
    ar.i32(s.relapseLevel);
    ar.u64(s.sinceDeescalation);
    ar.boolean(s.redoCommitPending);
    ar.f64(s.lastSampleT);
    ar.f64(s.lastSampleV);
    ar.i32(s.backupLead);
    ar.i32(s.backupAge);
    ar.i32(s.wakeLead);
    ar.i32(s.wakeAge);
    ar.u32(s.lastRollbackRegion);
    ar.u64(s.consecutiveRollbacks);
    ar.u64(s.lastCommitCount);
    ar.u64(s.commitCountAtRollback);
    ar.boolean(s.committedSinceDegrade);
    ar.f64(s.wakeNotBefore);
    for (std::uint64_t& c : s.counters)
        ar.u64(c);
    ar.f64(s.firstEscalationT);
    ar.f64(s.energyDebtJ);
    ar.f64(s.peakEnergyDebtJ);
}

std::vector<std::uint8_t>
bytesOf(DefenseController& dc)
{
    campaign::Archive ar = campaign::Archive::saver();
    dc.archiveState(ar);
    return ar.takePayload();
}

ArchivedState
stateOf(DefenseController& dc)
{
    campaign::Archive ar = campaign::Archive::loader(bytesOf(dc));
    ArchivedState s;
    archiveFields(ar, s);
    return s;
}

void
load(DefenseController& dc, ArchivedState s)
{
    campaign::Archive out = campaign::Archive::saver();
    archiveFields(out, s);
    campaign::Archive in = campaign::Archive::loader(out.takePayload());
    dc.archiveState(in);
}

/** observeSample took a transition: evidence, a mode or relapse-level
 *  change.  Evidence shows as a score off the pure decay step. */
bool
tookTransition(const DefenseConfig& config, const ArchivedState& before,
               const ArchivedState& after)
{
    const double decayed =
        std::max(0.0, before.score * (1.0 - config.decayPerSample));
    return after.mode != before.mode ||
           after.relapseLevel != before.relapseLevel ||
           after.score != decayed;
}

/** A randomized controller state around the step's decision edges. */
ArchivedState
randomState(const DefenseConfig& config, exp::Rng& rng)
{
    ArchivedState s;
    s.mode = static_cast<std::uint8_t>(rng.pick(4));
    s.relapseLevel =
        static_cast<std::int32_t>(rng.pick(config.relapseLevelCap + 1));
    const int dwell = std::min(config.calmSamples << s.relapseLevel,
                               1 << 20);
    // Calm runs at, one short of and two short of the dwell, or anywhere.
    const int calmPicks[] = {dwell - 1, dwell - 2, 0,
                             static_cast<int>(rng.pick(dwell))};
    s.calmRun = std::max(0, calmPicks[rng.pick(4)]);
    // Scores whose decay step lands just either side of scoreClear, or
    // next to scoreSuspicious / scoreAttack, or anywhere.
    const double keep = 1.0 - config.decayPerSample;
    const double nudge = 1.0 + (rng.uniform() - 0.5) * 1e-3;
    const double scorePicks[] = {
        config.scoreClear / keep * nudge, config.scoreClear * nudge,
        config.scoreSuspicious * nudge, config.scoreAttack * nudge, 0.0,
        rng.uniform() * config.scoreMax};
    s.score = std::min(scorePicks[rng.pick(6)], config.scoreMax);
    s.aboveSuspicion = rng.pick(2) != 0;
    s.sinceDeescalation =
        rng.pick(3) == 0 ? ~std::uint64_t{0} : rng.pick64(1000);
    s.redoCommitPending = rng.pick(2) != 0;
    s.committedSinceDegrade = rng.pick(2) != 0;
    // Pending edges on either side at every age up to past the window.
    s.backupLead = static_cast<std::int32_t>(rng.pick(3)) - 1;
    s.backupAge = s.backupLead != 0
                      ? static_cast<std::int32_t>(
                            rng.pick(config.edgeSkewSamples + 2))
                      : 0;
    s.wakeLead = static_cast<std::int32_t>(rng.pick(3)) - 1;
    s.wakeAge = s.wakeLead != 0 ? static_cast<std::int32_t>(
                                      rng.pick(config.edgeSkewSamples + 2))
                                : 0;
    s.lastSampleT = rng.pick(8) == 0 ? -1.0 : 0.01;
    s.lastSampleV = 2.0 + rng.uniform();
    s.energyDebtJ = rng.pick(2) == 0 ? 0.0 : rng.uniform() * 1e-4;
    return s;
}

TEST(DefenseTest, InlineStepMatchesObserveSampleFromRandomStates)
{
    DefenseConfig adaptive;
    ASSERT_TRUE(presetByName("adaptive", &adaptive));
    DefenseConfig strict;
    ASSERT_TRUE(presetByName("strict", &strict));
    DefenseConfig immediate = adaptive;
    immediate.edgeSkewSamples = 0;
    DefenseConfig wideSkew = strict;
    wideSkew.edgeSkewSamples = 3;
    exp::Rng rng(0x5a3913u);
    int transitions = 0;
    int inlineSteps = 0;
    for (const DefenseConfig& config :
         {adaptive, strict, immediate, wideSkew, fastConfig()}) {
        for (int trial = 0; trial < 1500; ++trial) {
            DefenseController fast(config, PlantModel{});
            load(fast, randomState(config, rng));
            DefenseController reference = fast;
            double t = 0.01;
            double v = stateOf(fast).lastSampleV;
            for (int n = 0; n < 12; ++n) {
                // Mostly quiet samples on a slow ramp; sometimes a lone
                // or paired edge pulse, a tone envelope or a volt-scale
                // jump.
                t += 1e-5 * (1 + rng.pick(64));
                v += (rng.uniform() - 0.5) * 2e-3;
                double lo = v;
                double hi = v;
                analog::MonitorEvent primary;
                analog::MonitorEvent shadow;
                switch (rng.pick(10)) {
                  case 0:
                    primary.backup = true;
                    break;
                  case 1:
                    shadow.wake = true;
                    break;
                  case 2:
                    primary.wake = shadow.wake = true;
                    break;
                  case 3:
                    lo = v - 0.4 * rng.uniform();
                    hi = v + 0.4 * rng.uniform();
                    break;
                  case 4:
                    lo = hi = v + (rng.pick(2) ? 1.0 : -1.0);
                    break;
                  default:
                    break;
                }
                const ArchivedState before = stateOf(reference);
                const std::vector<std::uint8_t> fastBefore = bytesOf(fast);
                const bool stepped =
                    fast.stepSample(t, lo, hi, primary, shadow);
                reference.observeSample(t, lo, hi, primary, shadow);
                const bool transition =
                    tookTransition(config, before, stateOf(reference));
                ASSERT_EQ(stepped, !transition)
                    << "trial " << trial << " sample " << n;
                if (stepped) {
                    ++inlineSteps;
                } else {
                    ++transitions;
                    EXPECT_EQ(bytesOf(fast), fastBefore)
                        << "a refused step wrote state";
                    fast.observeSample(t, lo, hi, primary, shadow);
                }
                ASSERT_EQ(bytesOf(fast), bytesOf(reference))
                    << "trial " << trial << " sample " << n;
            }
        }
    }
    // Both outcomes are exercised in bulk.
    EXPECT_GT(transitions, 5000);
    EXPECT_GT(inlineSteps, 20000);
}

TEST(DefenseTest, InlineQuietStepsMatchObserveSample)
{
    // N quiet samples from states next to every decision edge: the
    // inline step covers each one observeSample takes without a
    // transition, and the two leave identical archived bytes.
    DefenseConfig config;
    ASSERT_TRUE(presetByName("adaptive", &config));
    exp::Rng rng(0xca1du);
    int covered = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        DefenseController fast(config, PlantModel{});
        load(fast, randomState(config, rng));
        DefenseController reference = fast;
        double t = 0.01;
        const double v = stateOf(fast).lastSampleV;
        const analog::MonitorEvent quiet;
        for (int n = 0; n < 40; ++n) {
            t += 64e-5;
            const bool stepped = fast.stepSample(t, v, v, quiet, quiet);
            if (!stepped)
                fast.observeSample(t, v, v, quiet, quiet);
            reference.observeSample(t, v, v, quiet, quiet);
            covered += stepped ? 1 : 0;
        }
        ASSERT_EQ(bytesOf(fast), bytesOf(reference)) << "trial " << trial;
    }
    EXPECT_GT(covered, 3000 * 40 / 2);
}

TEST(DefenseTest, CommitNotesGroupExactlyWithoutDebtOutsideDegraded)
{
    // One noteCommit after a fused machine run stands for the per-
    // quantum calls it replaces whenever commitsGroup() holds.
    DefenseConfig config;
    ASSERT_TRUE(presetByName("adaptive", &config));
    exp::Rng rng(0xc0417u);
    for (int trial = 0; trial < 2000; ++trial) {
        ArchivedState s = randomState(config, rng);
        s.mode = static_cast<std::uint8_t>(rng.pick(3));
        s.energyDebtJ = 0.0;
        s.lastCommitCount = rng.pick(100);
        DefenseController grouped(config, PlantModel{});
        load(grouped, s);
        ASSERT_TRUE(grouped.commitsGroup());
        DefenseController perQuantum = grouped;
        std::uint64_t count = s.lastCommitCount;
        for (int q = 0; q < 8; ++q) {
            count += rng.pick(3);
            perQuantum.noteCommit(count);
        }
        grouped.noteCommit(count);
        ASSERT_EQ(bytesOf(grouped), bytesOf(perQuantum))
            << "trial " << trial;
    }
    // Outstanding debt or kDegraded: the guard refuses.
    DefenseController dc(config, PlantModel{});
    dc.noteEnergyCost(0.0, 1e-9);
    EXPECT_FALSE(dc.commitsGroup());
    DefenseController degraded(config, PlantModel{});
    degraded.noteRetriesExhausted(0.0);
    EXPECT_FALSE(degraded.commitsGroup());
}

}  // namespace
}  // namespace gecko::defense
