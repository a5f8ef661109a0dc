#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <tuple>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "campaign/archive.hpp"
#include "campaign/snapshot.hpp"
#include "compiler/pipeline.hpp"
#include "defense/controller.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "exp/rng.hpp"
#include "fault/campaign.hpp"
#include "sim/intermittent_sim.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * Differential suite for the quantum-loop fast path (DESIGN.md §14):
 * the fused kernel, which advances quiet running quanta and quanta
 * under a tone.  It is a pure speed optimization behind one switch
 * (SimConfig::coalesceQuanta / GECKO_COALESCE): every test here runs
 * the same scenario with the fast path on and off (the stepped
 * reference) and demands bit-identical observables —
 * machine ExecStats, registers, NVM image, I/O, simulated time, every
 * simulation counter except the fast-path telemetry itself, and the
 * full archived simulator state (capacitor energy, cycle carry and
 * debt, the DCO jitter sequence, monitor latches).
 *
 * Unlike the trace-carrying differentials in fuzz_test (an installed
 * trace buffer is one of the guards that *disables* the kernel), these
 * scenarios run without a buffer so the fast path actually engages —
 * each scenario asserts `coalescedQuanta > 0` (quiet quanta) or
 * `fusedQuanta > 0` (quanta under a tone) on the enabled arm where the
 * physics permit it.
 */

namespace gecko {
namespace {

using compiler::CompiledProgram;
using compiler::Scheme;

/** xorshift PRNG — deterministic across platforms. */
class Rng
{
  public:
    explicit Rng(std::uint32_t seed) : state_(seed ? seed : 1) {}

    std::uint32_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 17;
        state_ ^= state_ << 5;
        return state_;
    }

    std::uint32_t pick(std::uint32_t n) { return next() % n; }

  private:
    std::uint32_t state_;
};

/** SimConfig::defense for a campaign preset ("static" = none). */
defense::DefenseConfig
preset(const char* name)
{
    defense::DefenseConfig config;
    EXPECT_TRUE(defense::presetByName(name, &config)) << name;
    return config;
}

/** Everything observable about a finished run. */
struct Obs {
    sim::ExecStats stats;
    std::array<std::uint32_t, 16> regs{};
    std::vector<std::uint32_t> out;
    std::vector<std::uint32_t> memory;
    double simTimeS = 0.0;
    double now = 0.0;
    std::uint64_t quanta = 0;
    std::uint64_t sleepQuanta = 0;
    std::uint64_t coalescedQuanta = 0;
    std::uint64_t fusedQuanta = 0;
    /// A defense controller was attached, and its counters.
    bool defended = false;
    defense::DefenseStats defense;
    /// Re-enable probe outcomes: JIT disabled by boot detection, and
    /// re-enabled by a probe that saw no backup.
    std::uint64_t attackDetections = 0;
    std::uint64_t jitReenables = 0;
    /// IntermittentSim::archiveState bytes (controller state included).
    std::vector<std::uint8_t> snapshot;
    /// All SimStats counters that must not depend on the fast path.
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::uint64_t, std::uint64_t>
        counters;
};

Obs
capture(sim::IntermittentSim& simulation, sim::IoHub& io)
{
    Obs o;
    o.stats = simulation.machine().stats;
    o.regs = simulation.machine().regs();
    o.out = io.output(0).values();
    o.memory = simulation.nvm().data();
    o.simTimeS = simulation.stats.simTimeS;
    o.now = simulation.now();
    o.quanta = simulation.stats.quanta;
    o.sleepQuanta = simulation.stats.sleepQuanta;
    o.coalescedQuanta = simulation.stats.coalescedQuanta;
    o.fusedQuanta = simulation.stats.fusedQuanta;
    if (const defense::DefenseController* dc =
            simulation.defenseController()) {
        o.defended = true;
        o.defense = dc->stats();
    }
    o.attackDetections = simulation.geckoRuntime().stats.attackDetections;
    o.jitReenables = simulation.geckoRuntime().stats.jitReenables;
    campaign::Archive ar = campaign::Archive::saver();
    simulation.archiveState(ar);
    o.snapshot = ar.takePayload();
    const sim::SimStats& s = simulation.stats;
    o.counters = {s.reboots,
                  s.hardDeaths,
                  s.backupSignals,
                  s.wakeSignals,
                  s.ignoredBackups,
                  s.jitCheckpointAttempts,
                  s.jitCheckpointsComplete,
                  s.jitCheckpointsTorn,
                  s.jitCheckpointsAborted,
                  s.missedCheckpoints,
                  s.bootCycles};
    return o;
}

void
expectSame(const Obs& on, const Obs& off, const std::string& label)
{
    EXPECT_TRUE(on.stats == off.stats) << label << ": ExecStats diverged";
    EXPECT_EQ(on.regs, off.regs) << label;
    EXPECT_EQ(on.out, off.out) << label;
    EXPECT_EQ(on.memory, off.memory) << label;
    EXPECT_EQ(on.simTimeS, off.simTimeS) << label;
    EXPECT_EQ(on.now, off.now) << label;
    EXPECT_EQ(on.quanta, off.quanta) << label << ": quantum count";
    EXPECT_EQ(on.sleepQuanta, off.sleepQuanta)
        << label << ": sleeping quantum count";
    EXPECT_EQ(on.counters, off.counters) << label << ": SimStats counters";
    EXPECT_TRUE(on.snapshot == off.snapshot)
        << label << ": archived simulator state diverged";
}

// ---------------------------------------------------------------------
// Quiet-run engagement: a steady source with no attacker is the quiet
// fast path's home turf.  The enabled arm must advance most quanta in
// the kernel and still match the disabled arm bit-for-bit, with and
// without the adaptive controller (whose every quiet sample the kernel
// steps inline).
// ---------------------------------------------------------------------

Obs
runQuiet(int coalesceQuanta, sim::ExecBackend backend, const char* defense)
{
    static const CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    sim::SimConfig cfg;
    cfg.continuous = true;
    cfg.memWords = 4096;
    cfg.jitRamWords = 4;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    cfg.coalesceQuanta = coalesceQuanta;
    cfg.defense = preset(defense);

    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::ConstantHarvester supply(3.3, 5.0);
    sim::IntermittentSim simulation(compiled,
                                    device::DeviceDb::msp430fr5994(), cfg,
                                    supply, io);
    simulation.machine().setExecBackend(backend);
    simulation.run(0.05);
    return capture(simulation, io);
}

TEST(CoalesceQuietTest, QuietRunEngagesAndMatchesSlowPath)
{
    for (const char* defense : {"static", "adaptive"})
        for (sim::ExecBackend backend :
             {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
            const std::string name = std::string(defense) + "/" +
                                     sim::execBackendName(backend);
            Obs on = runQuiet(64, backend, defense);
            Obs off = runQuiet(0, backend, defense);
            ASSERT_GT(on.stats.cycles, 0u) << name;
            EXPECT_EQ(on.defended, std::string(defense) != "static")
                << name;
            EXPECT_GT(on.coalescedQuanta, 0u)
                << name << ": fast path never engaged on a quiet run";
            EXPECT_EQ(off.coalescedQuanta, 0u) << name;
            expectSame(on, off, name);
        }
}

// ---------------------------------------------------------------------
// Defended outage cycles: a square-wave supply with no attacker takes
// the capacitor through real V_backup and V_on crossings, where the two
// monitors legitimately flag the same edge a sample apart.  Each
// primary kind runs with the controller (its shadow is the opposite
// kind, whose edges can fall on a sample where the primary is silent),
// and the kernel must still match the stepped path bit-for-bit.
// ---------------------------------------------------------------------

Obs
runOutageCycles(analog::MonitorKind monitor, const char* defense,
                int coalesceQuanta)
{
    static const CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    sim::SimConfig cfg;
    cfg.monitorKind = monitor;
    cfg.memWords = 4096;
    cfg.jitRamWords = 64;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.coalesceQuanta = coalesceQuanta;
    cfg.defense = preset(defense);

    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::SquareWaveHarvester supply(3.3, 5.0, 0.004, 0.003);
    sim::IntermittentSim simulation(compiled,
                                    device::DeviceDb::msp430fr5994(), cfg,
                                    supply, io);
    simulation.run(0.05);
    return capture(simulation, io);
}

TEST(CoalesceQuietTest, DefendedOutageCyclesMatchSteppedPath)
{
    for (analog::MonitorKind monitor :
         {analog::MonitorKind::kAdc, analog::MonitorKind::kComparator})
        for (const char* defense : {"adaptive", "strict"}) {
            const std::string name =
                std::string(analog::monitorKindName(monitor)) + "/" +
                defense;
            Obs on = runOutageCycles(monitor, defense, 64);
            Obs off = runOutageCycles(monitor, defense, 0);
            ASSERT_TRUE(on.defended) << name;
            EXPECT_GT(std::get<0>(on.counters), 1u)
                << name << ": no power cycles";
            EXPECT_GT(on.defense.disagreements, 0u)
                << name << ": the monitors never split on an edge";
            EXPECT_GT(on.coalescedQuanta, 0u) << name;
            expectSame(on, off, name);
        }
}

// ---------------------------------------------------------------------
// Brown-out cuts: with V_backup a few millivolts above V_off, the last
// quanta before an outage stay above V_backup (no monitor edge fires)
// until one cannot be paid for.  A kernel run down the discharge
// therefore ends on the brown-out check after advancing quanta, and
// must leave the unaffordable one untouched for the stepped path: its
// energy, cycle carry and, when defended, controller state.
// ---------------------------------------------------------------------

Obs
runBrownOutCuts(analog::MonitorKind monitor, const char* defense,
                int coalesceQuanta)
{
    static const CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    // 8 MHz over a 90 kHz ADC or a 1.5 MHz comparator: a fractional
    // cycle budget per quantum, so the cycle carry moves every quantum.
    const device::DeviceProfile& device =
        device::DeviceDb::byName("MSP430FR6989");
    sim::SimConfig cfg;
    cfg.monitorKind = monitor;
    cfg.memWords = 4096;
    cfg.jitRamWords = 64;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.vBackupOverride = device.vOff + 0.001;
    cfg.coalesceQuanta = coalesceQuanta;
    cfg.defense = preset(defense);

    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::SquareWaveHarvester supply(3.3, 5.0, 0.004, 0.003);
    sim::IntermittentSim simulation(compiled, device, cfg, supply, io);
    simulation.run(0.05);
    return capture(simulation, io);
}

TEST(CoalesceQuietTest, BrownOutCutsMatchSteppedPath)
{
    for (analog::MonitorKind monitor :
         {analog::MonitorKind::kAdc, analog::MonitorKind::kComparator})
        for (const char* defense : {"static", "adaptive", "strict"}) {
            const std::string name =
                std::string(analog::monitorKindName(monitor)) + "/" +
                defense;
            Obs on = runBrownOutCuts(monitor, defense, 64);
            Obs off = runBrownOutCuts(monitor, defense, 0);
            EXPECT_EQ(on.defended, std::string(defense) != "static")
                << name;
            EXPECT_GT(std::get<1>(on.counters), 1u)
                << name << ": no brown-outs";
            EXPECT_GT(on.coalescedQuanta, 0u) << name;
            expectSame(on, off, name);
        }
}

// ---------------------------------------------------------------------
// Quiet ground the fused kernel covers since it took over coalescing.
// (a) An enabled source whose amplitude sits at or below the 1e-4 V cut
// of an active attack: no tone is active, so every quantum is quiet,
// yet each observation still adds emiAt's nonzero jittered sample and
// advances the DCO sequence.  (b) A weak supply the running core drains
// into V_backup: the quiet span walks into the fine-stride margin above
// V_backup, where the stepped path shortens the quantum.  Each arm runs
// both monitor kinds, with and without the controller, on both
// backends, and must match the stepped path bit-for-bit.
// ---------------------------------------------------------------------

enum class QuietArm { kWeakSource, kStrideMargin };

Obs
runQuietArm(QuietArm arm, analog::MonitorKind monitor, const char* defense,
            sim::ExecBackend backend, int coalesceQuanta)
{
    static const CompiledProgram sensor = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    static const CompiledProgram crc =
        compiler::compile(workloads::build("crc16"), Scheme::kGecko);
    const bool weakSource = arm == QuietArm::kWeakSource;
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.monitorKind = monitor;
    cfg.memWords = 4096;
    cfg.jitRamWords = 64;
    cfg.bootOverheadCycles = 1000;
    // The margin is four coarse quanta of energy; on 20 µF the ADC's
    // spans the whole band above V_backup, so the ADC would never run a
    // coarse quantum to walk in from.
    cfg.cap.capacitanceF = weakSource ? 20e-6 : 100e-6;
    cfg.cap.initialV = 3.3;
    cfg.coalesceQuanta = coalesceQuanta;
    cfg.defense = preset(defense);

    const char* workload = weakSource ? "sensor_loop" : "crc16";
    sim::IoHub io;
    workloads::setupIo(workload, io);
    energy::SquareWaveHarvester outages(3.3, 5.0, 0.004, 0.003);
    energy::ConstantHarvester weak(3.3, 300.0);
    energy::Harvester& supply =
        weakSource ? static_cast<energy::Harvester&>(outages) : weak;
    sim::IntermittentSim simulation(weakSource ? sensor : crc, dev, cfg,
                                    supply, io);
    simulation.machine().setExecBackend(backend);
    const double freqHz =
        monitor == analog::MonitorKind::kAdc ? 27e6 : 5e6;
    attack::RemoteRig rig(dev, monitor, 0.5);
    // The strongest whole-dBm tone still at or below the cut.
    double powerDbm = 35.0;
    while (rig.amplitude(freqHz, powerDbm) > 1e-4)
        powerDbm -= 1.0;
    attack::EmiSource source(rig, freqHz, powerDbm);
    if (weakSource) {
        EXPECT_TRUE(source.enabled());
        EXPECT_GT(source.amplitude(), 0.0);
        EXPECT_LE(source.amplitude(), 1e-4);
        simulation.setEmiSource(&source);
    }
    simulation.run(0.03);
    return capture(simulation, io);
}

TEST(CoalesceQuietTest, QuietGroundMatchesSteppedPath)
{
    for (QuietArm arm : {QuietArm::kWeakSource, QuietArm::kStrideMargin})
        for (analog::MonitorKind monitor :
             {analog::MonitorKind::kAdc, analog::MonitorKind::kComparator})
            for (const char* defense : {"static", "adaptive"})
                for (sim::ExecBackend backend :
                     {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
                    const std::string name =
                        std::string(arm == QuietArm::kWeakSource
                                        ? "weak-source/"
                                        : "stride-margin/") +
                        analog::monitorKindName(monitor) + "/" + defense +
                        "/" + sim::execBackendName(backend);
                    Obs on = runQuietArm(arm, monitor, defense, backend, 64);
                    Obs off = runQuietArm(arm, monitor, defense, backend, 0);
                    ASSERT_GT(on.stats.cycles, 0u) << name;
                    EXPECT_GT(std::get<2>(on.counters), 0u)
                        << name << ": no backup signals";
                    EXPECT_GT(on.coalescedQuanta, 0u) << name;
                    EXPECT_EQ(on.fusedQuanta, 0u)
                        << name << ": a tone counted as active";
                    EXPECT_EQ(off.coalescedQuanta, 0u) << name;
                    expectSame(on, off, name);
                }
}

// ---------------------------------------------------------------------
// Fuzzed EMI schedules: random tone windows switch the attack on and
// off mid-run.  Quiet quanta are advanced only between windows (a span
// ends at the next window edge) and never change a single observable,
// under every execution backend.
// ---------------------------------------------------------------------

struct EmiEnv {
    sim::IoHub io;
    std::unique_ptr<energy::ConstantHarvester> supply;
    std::unique_ptr<sim::IntermittentSim> simulation;
    std::unique_ptr<attack::RemoteRig> rig;
    std::unique_ptr<attack::EmiSource> source;
    std::unique_ptr<attack::AttackSchedule> schedule;
};

/** Deterministic (seed-derived) build; identical every call. */
void
buildEmiEnv(EmiEnv& env, std::uint32_t seed, sim::ExecBackend backend,
            int coalesceQuanta, const char* defense)
{
    Rng rng(seed);
    double freqHz = 1e6 * (1 + rng.pick(300));
    double powerDbm = 25.0 + rng.pick(16);
    std::vector<attack::AttackWindow> windows;
    double t = 0.001 * (1 + rng.pick(4));
    int nWindows = 2 + static_cast<int>(rng.pick(3));
    for (int i = 0; i < nWindows; ++i) {
        double on = 0.001 * (1 + rng.pick(5));
        windows.push_back({t, t + on, freqHz, powerDbm});
        t += on + 0.001 * (1 + rng.pick(4));
    }

    static const CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.continuous = true;
    cfg.memWords = 4096;
    cfg.jitRamWords = 4;
    cfg.bootOverheadCycles = 1000;
    cfg.monitorSeed = seed;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    cfg.coalesceQuanta = coalesceQuanta;
    cfg.defense = preset(defense);

    workloads::setupIo("sensor_loop", env.io);
    env.supply = std::make_unique<energy::ConstantHarvester>(3.3, 5.0);
    env.simulation = std::make_unique<sim::IntermittentSim>(
        compiled, dev, cfg, *env.supply, env.io);
    env.simulation->machine().setExecBackend(backend);
    env.rig = std::make_unique<attack::RemoteRig>(dev, cfg.monitorKind, 0.5);
    env.source =
        std::make_unique<attack::EmiSource>(*env.rig, freqHz, powerDbm);
    env.schedule =
        std::make_unique<attack::AttackSchedule>(std::move(windows));
    env.simulation->setEmiSource(env.source.get());
    env.simulation->setAttackSchedule(env.schedule.get());
}

Obs
runEmi(std::uint32_t seed, sim::ExecBackend backend, int coalesceQuanta,
       const char* defense)
{
    EmiEnv env;
    buildEmiEnv(env, seed, backend, coalesceQuanta, defense);
    env.simulation->run(0.03);
    return capture(*env.simulation, env.io);
}

class CoalesceEmiFuzzTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CoalesceEmiFuzzTest, RandomEmiSchedulesUnchangedByCoalescing)
{
    auto seed =
        static_cast<std::uint32_t>(exp::applyGlobalSeed(GetParam()));
    for (const char* defense : {"static", "adaptive"}) {
        std::uint64_t engaged = 0;
        for (sim::ExecBackend backend :
             {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
            const std::string name = std::string(defense) + "/" +
                                     sim::execBackendName(backend) +
                                     " seed " + std::to_string(seed);
            Obs on = runEmi(seed, backend, 64, defense);
            Obs off = runEmi(seed, backend, 0, defense);
            ASSERT_GT(on.stats.cycles, 0u) << name;
            EXPECT_EQ(on.defended, std::string(defense) != "static")
                << name;
            EXPECT_EQ(off.coalescedQuanta, 0u) << name;
            EXPECT_EQ(off.fusedQuanta, 0u) << name;
            expectSame(on, off, name);
            engaged += on.coalescedQuanta;
        }
        // The schedules leave quiet gaps between windows; at least some
        // of them must have been absorbed by the fast path.
        EXPECT_GT(engaged, 0u) << defense << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceEmiFuzzTest,
                         ::testing::Range(1u, 9u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Fault-injection differential: every injector class, replayed with
// the fast path on and off, must produce the identical CaseResult — the
// fast path may never move an injection point, change an outcome, or
// perturb a defence counter.  runCase resolves the fast-path switch
// from GECKO_COALESCE at simulator construction, so the arms toggle it
// through the environment.
// ---------------------------------------------------------------------

fault::CaseResult
runCaseWithCoalesce(const fault::CaseSpec& spec, const char* limit)
{
    ::setenv("GECKO_COALESCE", limit, 1);
    fault::CaseResult r =
        fault::runCase(spec, 0.5, 0, sim::ExecBackend::kBlock);
    ::unsetenv("GECKO_COALESCE");
    return r;
}

TEST(CoalesceInjectorTest, AllInjectorsUnaffectedByCoalescing)
{
    using fault::CaseResult;
    using fault::CaseSpec;
    using fault::InjectorKind;
    const InjectorKind kinds[] = {
        InjectorKind::kBitFlip,       InjectorKind::kMultiBitFlip,
        InjectorKind::kTornWrite,     InjectorKind::kAckCorrupt,
        InjectorKind::kStaleImage,    InjectorKind::kMonitorStuck,
        InjectorKind::kMonitorOffset, InjectorKind::kBrownoutBurst,
        InjectorKind::kEmiBurst,      InjectorKind::kInstrSkip,
        InjectorKind::kOpcodeCorrupt, InjectorKind::kOperandFlip,
    };
    for (InjectorKind kind : kinds) {
        for (Scheme scheme : {Scheme::kNvp, Scheme::kGecko}) {
            CaseSpec spec;
            spec.injector = kind;
            spec.scheme = scheme;
            spec.workload =
                fault::isSimLevel(kind) ? "sensor_loop" : "crc16";
            spec.seed = exp::applyGlobalSeed(
                exp::mixSeed(0xc0a1u, static_cast<std::uint64_t>(kind)));

            CaseResult on = runCaseWithCoalesce(spec, "64");
            CaseResult off = runCaseWithCoalesce(spec, "0");
            const char* inj = fault::injectorName(kind);
            EXPECT_EQ(on.outcome, off.outcome) << inj;
            EXPECT_EQ(on.detail, off.detail) << inj;
            EXPECT_EQ(on.injectAt, off.injectAt) << inj;
            EXPECT_EQ(on.word, off.word) << inj;
            EXPECT_EQ(on.corruptedRestores, off.corruptedRestores) << inj;
            EXPECT_EQ(on.crcRejects, off.crcRejects) << inj;
            EXPECT_EQ(on.slotRepairs, off.slotRepairs) << inj;
            EXPECT_EQ(on.ckptSaveRetries, off.ckptSaveRetries) << inj;
            EXPECT_EQ(on.retriesExhausted, off.retriesExhausted) << inj;
            EXPECT_EQ(on.integrityDegradations, off.integrityDegradations)
                << inj;
            EXPECT_EQ(on.defenseEscalations, off.defenseEscalations)
                << inj;
            EXPECT_EQ(on.defenseRatchetTrips, off.defenseRatchetTrips)
                << inj;
            EXPECT_EQ(on.defended, off.defended) << inj;
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot/resume differential: serializing the simulation between
// run() slices — kernel state never spans a slice; a deferred machine
// run is settled before the kernel returns — tearing the world down,
// and restoring into a fresh build must be invisible with the fast path
// enabled.  The restored run re-proves its spans from scratch (the
// fast-path telemetry is deliberately not archived), so this also pins
// down that a cold span proof reaches the same trajectory.
// ---------------------------------------------------------------------

Obs
runEmiSliced(std::uint32_t seed, int snapshotAt, const char* defense,
             int coalesceQuanta = 64)
{
    auto env = std::make_unique<EmiEnv>();
    buildEmiEnv(*env, seed, sim::ExecBackend::kBlock, coalesceQuanta,
                defense);
    for (int k = 0; k < 4; ++k) {
        env->simulation->run(0.005);
        if (k + 1 == snapshotAt) {
            std::vector<std::uint8_t> blob =
                campaign::saveSimSnapshot(*env->simulation, env->io);
            env = std::make_unique<EmiEnv>();
            buildEmiEnv(*env, seed, sim::ExecBackend::kBlock,
                        coalesceQuanta, defense);
            campaign::restoreSimSnapshot(*env->simulation, env->io, blob);
        }
    }
    return capture(*env->simulation, env->io);
}

class CoalesceSnapshotTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CoalesceSnapshotTest, SnapshotRestoreInvisibleWithCoalescing)
{
    auto seed =
        static_cast<std::uint32_t>(exp::applyGlobalSeed(GetParam()));
    for (const char* defense : {"static", "adaptive"}) {
        const std::string name =
            std::string(defense) + " seed " + std::to_string(seed);
        Obs ref = runEmiSliced(seed, -1, defense);
        ASSERT_GT(ref.stats.cycles, 0u) << name;
        EXPECT_GT(ref.coalescedQuanta + ref.fusedQuanta, 0u) << name;
        // The uninterrupted run itself matches the stepped path.
        expectSame(ref, runEmiSliced(seed, -1, defense, 0), name);
        for (int at : {1, 2, 3}) {
            Obs obs = runEmiSliced(seed, at, defense);
            // The telemetry counters restart at zero on restore, so
            // only the architectural observables and the archived state
            // are compared — via expectSame minus the quantum counters.
            const std::string label = name + " @" + std::to_string(at);
            EXPECT_TRUE(obs.stats == ref.stats) << label;
            EXPECT_EQ(obs.regs, ref.regs) << label;
            EXPECT_EQ(obs.out, ref.out) << label;
            EXPECT_EQ(obs.memory, ref.memory) << label;
            EXPECT_EQ(obs.simTimeS, ref.simTimeS) << label;
            EXPECT_EQ(obs.now, ref.now) << label;
            EXPECT_TRUE(obs.snapshot == ref.snapshot)
                << label << ": archived simulator state diverged";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceSnapshotTest,
                         ::testing::Range(1u, 5u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Fused EMI-active kernel matrix: the tone stays on (the paper's threat
// model) or switches with scheduled windows, on a duty-cycled square-wave
// supply, so the kernel runs through running and sleeping quanta, ignored
// and JIT-arming backups, boots, brown-outs and supply edges.  Every arm
// runs with the kernel on and off and must match bit-for-bit.  The
// monitor-fault arm is one of the kernel's guards: it must stay off there
// and the stepped path must still agree with itself.  The adaptive and
// strict arms attach the controller to GECKO (a policy of the kernel,
// stepped per sample); NVP never gets one.
// ---------------------------------------------------------------------

enum class FaultArm { kNone, kJitWrite, kMonitor };

struct KernelCase {
    analog::MonitorKind monitor;
    Scheme scheme;
    bool scheduled;
    FaultArm fault;
    const char* defense;
};

std::string
kernelCaseName(const KernelCase& c, sim::ExecBackend backend)
{
    static const char* const kFaults[] = {"clean", "jitwrite", "monitor"};
    return std::string(analog::monitorKindName(c.monitor)) + "/" +
           compiler::schemeName(c.scheme) + "/" +
           (c.scheduled ? "windows" : "tone") + "/" +
           kFaults[static_cast<int>(c.fault)] + "/" + c.defense + "/" +
           sim::execBackendName(backend);
}

Obs
runKernelCase(const KernelCase& c, sim::ExecBackend backend,
              int coalesceQuanta)
{
    static const CompiledProgram nvp = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kNvp);
    static const CompiledProgram gecko = compiler::compile(
        workloads::build("sensor_loop"), Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.monitorKind = c.monitor;
    cfg.memWords = 4096;
    cfg.jitRamWords = 256;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.coalesceQuanta = coalesceQuanta;
    cfg.defense = preset(c.defense);

    sim::IoHub io;
    workloads::setupIo("sensor_loop", io);
    energy::SquareWaveHarvester supply(3.3, 5.0, 0.004, 0.003);
    sim::IntermittentSim simulation(c.scheme == Scheme::kNvp ? nvp : gecko,
                                    dev, cfg, supply, io);
    simulation.machine().setExecBackend(backend);
    // Each path's resonance (Table I): 27 MHz for the ADC, 5 MHz for the
    // FR5994 comparator.
    const double freqHz =
        c.monitor == analog::MonitorKind::kAdc ? 27e6 : 5e6;
    attack::RemoteRig rig(dev, c.monitor, 0.5);
    attack::EmiSource source(rig, freqHz, 35.0);
    attack::AttackSchedule schedule({{0.002, 0.009, freqHz, 35.0},
                                     {0.011, 0.0165, freqHz, 30.0}});
    simulation.setEmiSource(&source);
    if (c.scheduled)
        simulation.setAttackSchedule(&schedule);
    if (c.fault == FaultArm::kJitWrite) {
        simulation.setJitWriteFault(
            [n = 0u](int) mutable { return ++n % 311u == 0; });
    } else if (c.fault == FaultArm::kMonitor) {
        simulation.setMonitorFault(
            [](double v, double) { return v - 0.02; });
    }
    simulation.run(0.02);
    return capture(simulation, io);
}

// The machine-bound arm: a compute workload, so nearly every running
// quantum must run the machine and the kernel defers its budget
// (DESIGN.md §14).  The tone disables JIT by boot detection and arms
// the re-enable probe; its backups (spurious or real) mark the probe's
// power cycle as attacked.  The weak window trips backups only near the
// threshold, so a probe there can conclude with none seen and re-enable
// JIT before the next backup reads jitActive — through the deferral
// guard's other arm.  Supplies: the campaign's stiff constant source,
// duty-cycled outages, and a weak source the running core drains
// through V_backup to a brown-out every power cycle.
enum class Supply { kCampaign, kOutages, kWeak };

struct MachineBoundCase {
    analog::MonitorKind monitor;
    Supply supply;
    bool weakWindow;
    const char* defense;
};

std::string
machineBoundName(const MachineBoundCase& c, sim::ExecBackend backend)
{
    static const char* const kSupplies[] = {"campaign", "outages", "weak"};
    return std::string("crc16/") + analog::monitorKindName(c.monitor) +
           "/" + kSupplies[static_cast<int>(c.supply)] + "/" +
           (c.weakWindow ? "weak-window" : "tone") + "/" + c.defense + "/" +
           sim::execBackendName(backend);
}

Obs
runMachineBoundCase(const MachineBoundCase& c, sim::ExecBackend backend,
                    int coalesceQuanta)
{
    static const CompiledProgram compiled =
        compiler::compile(workloads::build("crc16"), Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig cfg;
    cfg.monitorKind = c.monitor;
    cfg.memWords = 4096;
    cfg.jitRamWords = 64;
    cfg.bootOverheadCycles = 1000;
    cfg.cap.capacitanceF = 20e-6;
    cfg.cap.initialV = 3.3;
    cfg.coalesceQuanta = coalesceQuanta;
    cfg.defense = preset(c.defense);

    sim::IoHub io;
    workloads::setupIo("crc16", io);
    energy::ConstantHarvester campaign(3.3, 5.0);
    energy::SquareWaveHarvester outages(3.3, 5.0, 0.004, 0.005);
    energy::ConstantHarvester weak(3.3, 300.0);
    energy::Harvester* const supplies[] = {&campaign, &outages, &weak};
    sim::IntermittentSim simulation(
        compiled, dev, cfg, *supplies[static_cast<int>(c.supply)], io);
    simulation.machine().setExecBackend(backend);
    const double freqHz =
        c.monitor == analog::MonitorKind::kAdc ? 27e6 : 5e6;
    attack::RemoteRig rig(dev, c.monitor, 0.5);
    attack::EmiSource source(rig, freqHz, 35.0);
    attack::AttackSchedule schedule({{0.0, 0.006, freqHz, 35.0},
                                     {0.006, 0.016, freqHz, 10.0},
                                     {0.016, 0.03, freqHz, 35.0}});
    simulation.setEmiSource(&source);
    if (c.weakWindow)
        simulation.setAttackSchedule(&schedule);
    simulation.run(0.03);
    return capture(simulation, io);
}

TEST(FusedKernelTest, EmiActiveMatrixMatchesSteppedPath)
{
    for (const char* defense : {"static", "adaptive", "strict"})
        for (analog::MonitorKind monitor :
             {analog::MonitorKind::kAdc, analog::MonitorKind::kComparator})
            for (Scheme scheme : {Scheme::kNvp, Scheme::kGecko})
                for (bool scheduled : {false, true})
                    for (FaultArm fault :
                         {FaultArm::kNone, FaultArm::kJitWrite,
                          FaultArm::kMonitor})
                        for (sim::ExecBackend backend :
                             {sim::ExecBackend::kStep,
                              sim::ExecBackend::kBlock}) {
                            const KernelCase c{monitor, scheme, scheduled,
                                               fault, defense};
                            const std::string name =
                                kernelCaseName(c, backend);
                            Obs on = runKernelCase(c, backend, 64);
                            Obs off = runKernelCase(c, backend, 0);
                            ASSERT_GT(on.stats.cycles, 0u) << name;
                            EXPECT_EQ(on.defended,
                                      scheme == Scheme::kGecko &&
                                          std::string(defense) != "static")
                                << name << ": controller attachment";
                            EXPECT_GT(on.sleepQuanta, 0u) << name;
                            EXPECT_EQ(off.fusedQuanta, 0u) << name;
                            if (fault == FaultArm::kMonitor)
                                EXPECT_EQ(on.fusedQuanta, 0u)
                                    << name << ": kernel ran past its guard";
                            else
                                EXPECT_GT(on.fusedQuanta, 0u)
                                    << name << ": kernel never engaged";
                            expectSame(on, off, name);
                        }

    std::uint64_t detections = 0;
    std::uint64_t reenables = 0;
    for (const char* defense : {"static", "adaptive"})
        for (analog::MonitorKind monitor :
             {analog::MonitorKind::kAdc, analog::MonitorKind::kComparator})
            for (Supply supply :
                 {Supply::kCampaign, Supply::kOutages, Supply::kWeak})
                for (bool weakWindow : {false, true})
                    for (sim::ExecBackend backend :
                         {sim::ExecBackend::kStep, sim::ExecBackend::kBlock}) {
                        const MachineBoundCase c{monitor, supply, weakWindow,
                                                 defense};
                        const std::string name = machineBoundName(c, backend);
                        Obs on = runMachineBoundCase(c, backend, 64);
                        Obs off = runMachineBoundCase(c, backend, 0);
                        ASSERT_GT(on.stats.cycles, 0u) << name;
                        EXPECT_GT(on.fusedQuanta * 2, on.quanta)
                            << name << ": kernel left the machine stepped";
                        EXPECT_EQ(off.fusedQuanta, 0u) << name;
                        detections += on.attackDetections;
                        reenables += on.jitReenables;
                        expectSame(on, off, name);
                    }
    EXPECT_GT(detections, 0u) << "no arm disabled JIT by detection";
    EXPECT_GT(reenables, 0u) << "no probe concluded without a backup";
}

// ---------------------------------------------------------------------
// The defended arc under a sustained resonant tone (DESIGN.md §11):
// detection, the ratchet into kDegraded, forged wakes deferred by the
// recharge dwell (many of them below the boot lockout), and recovery
// after the tone.  The fused kernel must call wakeAllowed exactly where
// the stepped path does, so the deferral count and every other
// controller field match with the fast paths on and off.
// ---------------------------------------------------------------------

Obs
runDefendedArc(analog::MonitorKind monitor, int coalesceQuanta)
{
    const auto& dev = device::DeviceDb::msp430fr5994();
    static const CompiledProgram compiled = [] {
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 60000;
        return compiler::compile(workloads::build("sensor_app"),
                                 Scheme::kGecko, pconfig);
    }();
    sim::SimConfig cfg;
    cfg.monitorKind = monitor;
    cfg.cap.capacitanceF = 1e-3;
    cfg.coalesceQuanta = coalesceQuanta;
    cfg.defense = preset("adaptive");
    cfg.defense.energyDebtBudgetJ = 2.5e-3;

    sim::IoHub io;
    workloads::setupIo("sensor_app", io);
    energy::ConstantHarvester supply(3.3, 600.0);
    const double freqHz =
        monitor == analog::MonitorKind::kAdc ? 27e6 : 5e6;
    attack::RemoteRig rig(dev, monitor, 0.5);
    attack::EmiSource source(rig, freqHz, 38.0);
    attack::AttackSchedule schedule({{0.2, 2.2, freqHz, 38.0}});
    sim::IntermittentSim simulation(compiled, dev, cfg, supply, io);
    simulation.setEmiSource(&source);
    simulation.setAttackSchedule(&schedule);
    simulation.run(2.6);
    return capture(simulation, io);
}

TEST(FusedKernelTest, DefendedRatchetArcMatchesSteppedPath)
{
    for (analog::MonitorKind monitor :
         {analog::MonitorKind::kAdc, analog::MonitorKind::kComparator}) {
        const char* name = analog::monitorKindName(monitor);
        Obs on = runDefendedArc(monitor, 64);
        Obs off = runDefendedArc(monitor, 0);
        ASSERT_TRUE(on.defended) << name;
        EXPECT_GT(on.defense.ratchetTrips, 0u) << name;
        EXPECT_GT(on.defense.wakesDeferred, 0u) << name;
        EXPECT_GT(on.fusedQuanta, 0u) << name;
        EXPECT_GT(on.coalescedQuanta, 0u) << name;
        expectSame(on, off, name);
    }
}

}  // namespace
}  // namespace gecko
