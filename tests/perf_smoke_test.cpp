#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "attack/attack_schedule.hpp"
#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "compiler/pipeline.hpp"
#include "device/device_db.hpp"
#include "energy/harvester.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/machine.hpp"
#include "workloads/workloads.hpp"

/**
 * @file
 * Perf smoke (ctest label `perf`): a short fig13 slice — the attacked
 * sensor app on duty-cycled power — run under the fast-dispatch and
 * block-compiled backends.  Fails if
 *  - the block backend diverges from fast dispatch in any observable
 *    final state (the figures' byte-identical-stdout guarantee), or
 *  - the block backend is more than 10% *slower* than fast dispatch
 *    (a regression guard, not a speedup assertion: wall-clock ratios
 *    on shared CI hosts are too noisy to gate the 3x target, which is
 *    recorded in BENCH_sweeps.json instead).
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

TEST(PerfSmokeTest, BlockBackendKeepsPaceWithFastDispatch)
{
    SliceResult fast = runSlice(sim::ExecBackend::kFast, 3);
    SliceResult block = runSlice(sim::ExecBackend::kBlock, 3);

    // Divergence in final machine state fails regardless of timing.
    EXPECT_TRUE(block.stats == fast.stats)
        << "block backend diverged in ExecStats";
    EXPECT_EQ(block.regs, fast.regs);
    EXPECT_EQ(block.pc, fast.pc);
    EXPECT_EQ(block.out, fast.out);
    EXPECT_EQ(block.memory, fast.memory);
    ASSERT_GT(fast.stats.cycles, 1'000'000u) << "slice too short to time";

    EXPECT_LE(block.bestWallS, fast.bestWallS * 1.10)
        << "block backend regressed: " << block.bestWallS
        << "s vs fast " << fast.bestWallS << "s";

    // Informational: the recorded speedup lives in BENCH_sweeps.json.
    std::cout << "[perf_smoke] fast " << fast.bestWallS << "s, block "
              << block.bestWallS << "s ("
              << fast.bestWallS / block.bestWallS << "x)\n";
}

/**
 * Quantum-coalescing regression guard (DESIGN.md §14): a quiet
 * fig13-style slice — same device/cap/workload, attack tone absent —
 * must (a) actually engage the coalescing fast path and (b) sustain a
 * conservative simulated-cycles-per-wall-second floor.  The floor is
 * ~20x below the rate a contended 1-core host reaches, so it only trips
 * on a genuine collapse of the fast path (e.g. the guard chain
 * rejecting every burst), not on CI noise.
 */
TEST(PerfSmokeTest, QuietSliceCoalescesAndHoldsThroughputFloor)
{
    static const compiler::CompiledProgram compiled = [] {
        compiler::PipelineConfig pconfig;
        pconfig.maxRegionCycles = 6000;
        return compiler::compile(workloads::build("sensor_app"),
                                 compiler::Scheme::kGecko, pconfig);
    }();
    const auto& dev = device::DeviceDb::msp430fr5994();

    double bestWallS = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t quanta = 0;
    std::uint64_t coalesced = 0;
    for (int rep = 0; rep < 3; ++rep) {
        sim::IoHub io;
        workloads::setupIo("sensor_app", io);
        energy::ConstantHarvester wave(3.3, 150.0);
        sim::SimConfig config;
        config.cap.capacitanceF = 1e-3;
        config.coalesceQuanta = 64;

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.machine().setExecBackend(sim::ExecBackend::kBlock);

        auto t0 = std::chrono::steady_clock::now();
        simulation.run(2.0);
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || wall < bestWallS)
            bestWallS = wall;
        cycles = simulation.machine().stats.cycles;
        quanta = simulation.stats.quanta;
        coalesced = simulation.stats.coalescedQuanta;
    }

    ASSERT_GT(cycles, 1'000'000u) << "slice too short to time";
    EXPECT_GT(coalesced, 0u)
        << "coalescing fast path never engaged on a quiet slice";
    // Most quanta of a quiet steady-source run should coalesce.
    EXPECT_GT(coalesced * 2, quanta)
        << "fast path absorbed only " << coalesced << " of " << quanta
        << " quanta";
    const double simCyclesPerS = static_cast<double>(cycles) / bestWallS;
    EXPECT_GE(simCyclesPerS, 5e7)
        << "quiet-slice throughput collapsed: " << simCyclesPerS
        << " sim cycles/s (" << cycles << " cycles in " << bestWallS
        << "s)";
    std::cout << "[perf_smoke] quiet slice: " << simCyclesPerS
              << " sim cycles/s, " << coalesced << "/" << quanta
              << " quanta coalesced\n";
}

/**
 * Fused EMI-active kernel guard (DESIGN.md §14.1): a Table-I cell — the
 * FR5994 comparator path under a continuous 35 dBm tone at its 5 MHz
 * resonance, GECKO on the 1 Hz square-wave supply — must (a) step at
 * least 80 % of its quanta, running and sleeping, through the fused
 * kernel and (b) hold a conservative stepped-quanta-per-wall-second
 * floor.  Like the quiet-slice floor, it sits ~50x below what a
 * Release build reaches (2.8e7 quanta/s with the kernel, 1.4e7
 * without it, on a 4-core host), so sanitizer builds and loaded CI
 * hosts clear it and it trips only on a collapse of the quantum loop;
 * the coverage assertion is what catches a kernel that stops
 * engaging.
 */
TEST(PerfSmokeTest, ToneSliceFusesAndHoldsQuantumFloor)
{
    static const compiler::CompiledProgram compiled = compiler::compile(
        workloads::build("sensor_loop"), compiler::Scheme::kGecko);
    const auto& dev = device::DeviceDb::msp430fr5994();

    double bestWallS = 0.0;
    std::uint64_t stepped = 0;
    std::uint64_t fused = 0;
    for (int rep = 0; rep < 3; ++rep) {
        sim::IoHub io;
        workloads::setupIo("sensor_loop", io);
        energy::SquareWaveHarvester wave(3.3, 5.0, 0.5, 0.5);
        sim::SimConfig config;
        config.monitorKind = analog::MonitorKind::kComparator;
        config.cap.capacitanceF = 1e-3;
        config.coalesceQuanta = 64;
        attack::RemoteRig rig(dev, analog::MonitorKind::kComparator, 0.1);
        attack::EmiSource source(rig, 5e6, 35.0);

        sim::IntermittentSim simulation(compiled, dev, config, wave, io);
        simulation.machine().setExecBackend(sim::ExecBackend::kBlock);
        simulation.setEmiSource(&source);

        auto t0 = std::chrono::steady_clock::now();
        simulation.run(0.3);
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || wall < bestWallS)
            bestWallS = wall;
        const sim::SimStats& s = simulation.stats;
        stepped = s.quanta - s.coalescedQuanta + s.sleepQuanta;
        fused = s.fusedQuanta;
    }

    ASSERT_GT(stepped, 100'000u) << "slice too short to time";
    EXPECT_GE(static_cast<double>(fused), 0.8 * static_cast<double>(stepped))
        << "fused kernel stepped only " << fused << " of " << stepped
        << " quanta";
    const double quantaPerS = static_cast<double>(stepped) / bestWallS;
    EXPECT_GE(quantaPerS, 5e5)
        << "tone-slice throughput collapsed: " << quantaPerS
        << " stepped quanta/s (" << stepped << " in " << bestWallS << "s)";
    std::cout << "[perf_smoke] tone slice: " << quantaPerS
              << " stepped quanta/s, " << fused << "/" << stepped
              << " quanta fused\n";
}

}  // namespace
}  // namespace gecko
