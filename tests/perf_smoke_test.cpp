#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "compiler/pipeline.hpp"
#include "defense/controller.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/machine.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * Perf smoke (ctest label `perf`): a short fig13 slice — the attacked
 * sensor app on duty-cycled power — run under the reference step() and
 * block-compiled backends.  Fails if
 *  - the block backend diverges from step() in any observable final
 *    state (the figures' byte-identical-stdout guarantee), or
 *  - the block backend takes more than 0.45x the step() wall time.
 *    On a 4-core host the ratio is 0.19-0.23x in RelWithDebInfo and
 *    0.17x under ASan+UBSan or TSan, so the bound trips on a real
 *    regression of the block tier, not on CI noise.
 * Each backend takes the best of three timed runs to damp scheduler
 * noise.
 */

namespace gecko {
namespace {

struct SliceResult {
    sim::ExecStats stats;
    std::array<std::uint32_t, 16> regs{};
    std::uint32_t pc = 0;
    std::vector<std::uint32_t> out;
    std::vector<std::uint32_t> memory;
    double bestWallS = 0.0;
};

/** One fig13 scenario-(f) GECKO cell, shortened to 20 paper-minutes. */
SliceResult
runSlice(sim::ExecBackend backend, int reps)
{
    const double kMinuteS = 0.2;
    const double kTotalMin = 20.0;

    static const compiler::CompiledProgram compiled = [] {
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 6000;
        return compiler::compile(workloads::build("sensor_app"),
                                 compiler::Scheme::kGecko, pconfig);
    }();
    const auto& dev = device::DeviceDb::msp430fr5994();

    SliceResult result;
    for (int rep = 0; rep < reps; ++rep) {
        sim::IoHub io;
        workloads::setupIo("sensor_app", io);
        energy::ConstantHarvester wave(3.3, 150.0);
        sim::SimConfig config;
        config.cap.capacitanceF = 1e-3;
        attack::AttackSchedule schedule =
            attack::AttackSchedule::scenario('f', kMinuteS, 5.0, 27e6,
                                             35.0);
        attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.5);
        attack::EmiSource source(rig, 27e6, 35.0);

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.machine().setExecBackend(backend);
        simulation.setEmiSource(&source);
        simulation.setAttackSchedule(&schedule);

        auto t0 = std::chrono::steady_clock::now();
        simulation.run(kTotalMin * kMinuteS);
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();

        if (rep == 0 || wall < result.bestWallS)
            result.bestWallS = wall;
        result.stats = simulation.machine().stats;
        result.regs = simulation.machine().regs();
        result.pc = simulation.machine().pc();
        result.out = io.output(0).values();
        result.memory = simulation.nvm().data();
    }
    return result;
}

TEST(PerfSmokeTest, BlockBackendOutpacesStepReference)
{
    SliceResult step = runSlice(sim::ExecBackend::kStep, 3);
    SliceResult block = runSlice(sim::ExecBackend::kBlock, 3);

    // Divergence in final machine state fails regardless of timing.
    EXPECT_TRUE(block.stats == step.stats)
        << "block backend diverged in ExecStats";
    EXPECT_EQ(block.regs, step.regs);
    EXPECT_EQ(block.pc, step.pc);
    EXPECT_EQ(block.out, step.out);
    EXPECT_EQ(block.memory, step.memory);
    ASSERT_GT(step.stats.cycles, 1'000'000u) << "slice too short to time";

    EXPECT_LE(block.bestWallS, step.bestWallS * 0.45)
        << "block backend regressed: " << block.bestWallS
        << "s vs step " << step.bestWallS << "s";

    std::cout << "[perf_smoke] step " << step.bestWallS << "s, block "
              << block.bestWallS << "s ("
              << step.bestWallS / block.bestWallS << "x)\n";
}

/** Quantum-loop totals of the best-timed of three slice runs. */
struct LoopSlice {
    double bestWallS = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t quanta = 0;
    std::uint64_t coalesced = 0;
    /// Stepped quanta, running and sleeping (coalesced ones excluded).
    std::uint64_t stepped = 0;
    std::uint64_t fused = 0;
    bool defended = false;
};

/**
 * The quiet fig13-style slice — same device/cap/workload as runSlice,
 * attack tone absent — under defense preset `defense`.
 */
LoopSlice
runQuietSlice(const char* defense)
{
    static const compiler::CompiledProgram compiled = [] {
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 6000;
        return compiler::compile(workloads::build("sensor_app"),
                                 compiler::Scheme::kGecko, pconfig);
    }();
    const auto& dev = device::DeviceDb::msp430fr5994();

    LoopSlice result;
    for (int rep = 0; rep < 3; ++rep) {
        sim::IoHub io;
        workloads::setupIo("sensor_app", io);
        energy::ConstantHarvester wave(3.3, 150.0);
        sim::SimConfig config;
        config.cap.capacitanceF = 1e-3;
        config.coalesceQuanta = 64;
        EXPECT_TRUE(defense::presetByName(defense, &config.defense));

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.machine().setExecBackend(sim::ExecBackend::kBlock);

        auto t0 = std::chrono::steady_clock::now();
        simulation.run(2.0);
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || wall < result.bestWallS)
            result.bestWallS = wall;
        result.cycles = simulation.machine().stats.cycles;
        result.quanta = simulation.stats.quanta;
        result.coalesced = simulation.stats.coalescedQuanta;
        result.defended = simulation.defenseController() != nullptr;
    }
    return result;
}

/**
 * The Table-I tone cell — the FR5994 comparator path under a continuous
 * 35 dBm tone at its 5 MHz resonance, GECKO on the 1 Hz square-wave
 * supply — under defense preset `defense`.
 */
LoopSlice
runToneSlice(const char* defense)
{
    static const compiler::CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), compiler::Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();

    LoopSlice result;
    for (int rep = 0; rep < 3; ++rep) {
        sim::IoHub io;
        workloads::setupIo("sensor_loop", io);
        energy::SquareWaveHarvester wave(3.3, 5.0, 0.5, 0.5);
        sim::SimConfig config;
        config.monitorKind = analog::MonitorKind::kComparator;
        config.cap.capacitanceF = 1e-3;
        config.coalesceQuanta = 64;
        EXPECT_TRUE(defense::presetByName(defense, &config.defense));
        attack::RemoteRig rig(dev, analog::MonitorKind::kComparator, 0.1);
        attack::EmiSource source(rig, 5e6, 35.0);

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.machine().setExecBackend(sim::ExecBackend::kBlock);
        simulation.setEmiSource(&source);

        auto t0 = std::chrono::steady_clock::now();
        simulation.run(0.3);
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || wall < result.bestWallS)
            result.bestWallS = wall;
        const sim::SimStats& s = simulation.stats;
        result.stepped = s.quanta - s.coalescedQuanta + s.sleepQuanta;
        result.fused = s.fusedQuanta;
        result.defended = simulation.defenseController() != nullptr;
    }
    return result;
}

/**
 * Quiet-quantum regression guard (DESIGN.md §14): the quiet slice
 * must (a) actually engage the fused kernel and (b) sustain a
 * conservative simulated-cycles-per-wall-second floor.  The floor is
 * ~20x below the rate a contended 1-core host reaches, so it only trips
 * on a genuine collapse of the fast path (e.g. the guard chain
 * rejecting every span), not on CI noise.
 */
TEST(PerfSmokeTest, QuietSliceCoalescesAndHoldsThroughputFloor)
{
    const LoopSlice r = runQuietSlice("static");
    ASSERT_GT(r.cycles, 1'000'000u) << "slice too short to time";
    EXPECT_GT(r.coalesced, 0u)
        << "fused kernel never engaged on a quiet slice";
    // Most quanta of a quiet steady-source run should coalesce.
    EXPECT_GT(r.coalesced * 2, r.quanta)
        << "fast path absorbed only " << r.coalesced << " of " << r.quanta
        << " quanta";
    const double simCyclesPerS = static_cast<double>(r.cycles) / r.bestWallS;
    EXPECT_GE(simCyclesPerS, 5e7)
        << "quiet-slice throughput collapsed: " << simCyclesPerS
        << " sim cycles/s (" << r.cycles << " cycles in " << r.bestWallS
        << "s)";
    std::cout << "[perf_smoke] quiet slice: " << simCyclesPerS
              << " sim cycles/s, " << r.coalesced << "/" << r.quanta
              << " quanta coalesced\n";
}

/**
 * The adaptive-preset twin: with the controller attached the quiet
 * slice must still coalesce most of its quanta (the controller is a
 * per-sample policy of the kernel, not a guard), so a change that turns
 * the defended fast path off again fails here.
 */
TEST(PerfSmokeTest, AdaptiveQuietSliceCoalesces)
{
    const LoopSlice r = runQuietSlice("adaptive");
    ASSERT_TRUE(r.defended);
    ASSERT_GT(r.cycles, 1'000'000u) << "slice too short";
    EXPECT_GT(r.coalesced * 2, r.quanta)
        << "defended fast path absorbed only " << r.coalesced << " of "
        << r.quanta << " quanta";
    std::cout << "[perf_smoke] adaptive quiet slice: " << r.coalesced
              << "/" << r.quanta << " quanta coalesced\n";
}

/**
 * Fused EMI-active kernel guard (DESIGN.md §14): the tone slice must
 * (a) step at least 80 % of its quanta, running and sleeping, through
 * the fused kernel and (b) hold a conservative
 * stepped-quanta-per-wall-second floor.  Like the quiet-slice floor, it
 * sits ~50x below what a Release build reaches (2.8e7 quanta/s with the
 * kernel, 1.4e7 without it, on a 4-core host), so sanitizer builds and
 * loaded CI hosts clear it and it trips only on a collapse of the
 * quantum loop; the coverage assertion is what catches a kernel that
 * stops engaging.
 */
TEST(PerfSmokeTest, ToneSliceFusesAndHoldsQuantumFloor)
{
    const LoopSlice r = runToneSlice("static");
    ASSERT_GT(r.stepped, 100'000u) << "slice too short to time";
    EXPECT_GE(static_cast<double>(r.fused),
              0.8 * static_cast<double>(r.stepped))
        << "fused kernel stepped only " << r.fused << " of " << r.stepped
        << " quanta";
    const double quantaPerS = static_cast<double>(r.stepped) / r.bestWallS;
    EXPECT_GE(quantaPerS, 5e5)
        << "tone-slice throughput collapsed: " << quantaPerS
        << " stepped quanta/s (" << r.stepped << " in " << r.bestWallS
        << "s)";
    std::cout << "[perf_smoke] tone slice: " << quantaPerS
              << " stepped quanta/s, " << r.fused << "/" << r.stepped
              << " quanta fused\n";
}

/**
 * The adaptive-preset twin of the tone slice: the controller is a
 * per-sample policy of the fused kernel, so the defended slice must
 * fuse like the undefended one.  Measured on the block backend: 557 019
 * of 585 767 stepped quanta (95.1 %) fused, the same count as the
 * static preset, although every one of its samples carries physics
 * evidence.  The guard keeps the static twin's 80 % floor.
 */
TEST(PerfSmokeTest, AdaptiveToneSliceFuses)
{
    const LoopSlice r = runToneSlice("adaptive");
    ASSERT_TRUE(r.defended);
    ASSERT_GT(r.stepped, 100'000u) << "slice too short";
    EXPECT_GE(static_cast<double>(r.fused),
              0.8 * static_cast<double>(r.stepped))
        << "defended fused kernel stepped only " << r.fused << " of "
        << r.stepped << " quanta";
    std::cout << "[perf_smoke] adaptive tone slice: " << r.fused << "/"
              << r.stepped << " quanta fused\n";
}

/** Running-quantum totals of a machine-bound tone job. */
struct MachineBoundSlice {
    std::uint64_t running = 0;
    /// Running quanta the fused kernel advanced (a lower bound: every
    /// stepped sleeping quantum is counted as fused and subtracted).
    std::uint64_t fusedRunning = 0;
    bool defended = false;
};

/**
 * A campaign_resume-style tone job (campaign::Engine's simulator
 * setup): GECKO crc16 on the constant 3.3 V / 5 Ω supply under a
 * continuous 35 dBm tone at the FR5994 ADC path's 27 MHz resonance,
 * 0.25 s in five 0.05 s slices, under defense preset `defense`.
 */
MachineBoundSlice
runMachineBoundToneJob(const char* defense)
{
    static const compiler::CompiledProgram compiled = compiler::compile(
        workloads::build("crc16"), compiler::Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();
    sim::SimConfig config;
    config.memWords = 4096;
    config.jitRamWords = 64;
    config.bootOverheadCycles = 1000;
    config.cap.capacitanceF = 20e-6;
    config.cap.initialV = 3.3;
    config.coalesceQuanta = 64;
    EXPECT_TRUE(defense::presetByName(defense, &config.defense));

    sim::IoHub io;
    workloads::setupIo("crc16", io);
    energy::ConstantHarvester supply(3.3, 5.0);
    sim::IntermittentSim simulation(compiled, dev, config, supply, io);
    simulation.machine().setExecBackend(sim::ExecBackend::kBlock);
    attack::RemoteRig rig(dev, analog::MonitorKind::kAdc, 0.5);
    attack::EmiSource source(rig, 27e6, 35.0);
    simulation.setEmiSource(&source);
    for (int slice = 0; slice < 5; ++slice)
        simulation.run(0.05);

    const sim::SimStats& s = simulation.stats;
    MachineBoundSlice result;
    result.running = s.quanta;
    result.fusedRunning =
        s.fusedQuanta > s.sleepQuanta ? s.fusedQuanta - s.sleepQuanta : 0;
    result.defended = simulation.defenseController() != nullptr;
    return result;
}

/**
 * Machine-deferral guard (DESIGN.md §14): under a sustained tone
 * GECKO detects the attack and runs with JIT disabled, so nearly every
 * running quantum must run the machine.  The fused kernel defers that
 * run to the next point that reads machine state, so it must advance
 * ≥ 80 % of the running quanta.  Measured on the block backend, by
 * the lower bound below: the static preset fuses 24 960 of 24 961
 * running quanta, the adaptive one 24 919 of 24 984 (its controller
 * steps the saturated physics evidence of every sample inline).  With
 * the kernel handing those quanta back to the stepped path, as it did
 * before the deferral, the same bound read 1 424 of 24 961 and 1 424
 * of 24 984.
 */
TEST(PerfSmokeTest, MachineBoundToneJobFusesRunningQuanta)
{
    for (const char* defense : {"static", "adaptive"}) {
        const MachineBoundSlice r = runMachineBoundToneJob(defense);
        EXPECT_EQ(r.defended, std::string(defense) == "adaptive");
        ASSERT_GT(r.running, 10'000u) << defense << ": job too short";
        EXPECT_GE(static_cast<double>(r.fusedRunning),
                  0.8 * static_cast<double>(r.running))
            << defense << ": fused kernel advanced only " << r.fusedRunning
            << " of " << r.running << " running quanta";
        std::cout << "[perf_smoke] " << defense
                  << " machine-bound tone job: " << r.fusedRunning << "/"
                  << r.running << " running quanta fused\n";
    }
}

}  // namespace
}  // namespace gecko
