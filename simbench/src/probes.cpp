#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "attack/emi_source.hpp"
#include "attack/rigs.hpp"
#include "sim/io_devices.hpp"
#include "sim/jit_checkpoint.hpp"
#include "sim/machine.hpp"
#include "sim/nvm.hpp"
#include "workloads/workloads.hpp"

namespace simbench {

using namespace gecko;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps probe results observable so the timed loops are not elided.
std::atomic<std::uint64_t> gSink{0};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A machine configured the way IntermittentSim configures its core. */
struct Core {
    sim::Nvm nvm;
    sim::IoHub io;
    sim::Machine machine;

    Core(const NamedProgram& p, std::size_t memWords)
        : nvm(memWords), machine(*p.second, nvm, io)
    {
        workloads::setupIo(p.first, io);
        machine.setStagedIo(p.second->scheme != compiler::Scheme::kNvp);
        machine.setContinuous(true);
        machine.setFaultTolerant(true);
    }
};

}  // namespace

double
probeMachineNsPerInstr(const std::vector<NamedProgram>& programs,
                       std::size_t memWords)
{
    if (programs.empty())
        return 0.0;
    // ~64 M cycles in total keeps the probe near 100 ms however many
    // programs the workload has.
    const std::uint64_t budget = std::max<std::uint64_t>(
        1000000, 64000000 / programs.size());
    double seconds = 0.0;
    std::uint64_t instrs = 0;
    for (const NamedProgram& p : programs) {
        Core core(p, memWords);
        std::uint64_t consumed = 0;
        core.machine.run(budget / 4, &consumed);  // warm the block cache
        const std::uint64_t before = core.machine.stats.instrs;
        const auto t0 = Clock::now();
        core.machine.run(budget, &consumed);
        seconds += secondsSince(t0);
        instrs += core.machine.stats.instrs - before;
    }
    return instrs ? seconds * 1e9 / static_cast<double>(instrs) : 0.0;
}

double
probeJitNsPerWord(const NamedProgram& program,
                  const device::DeviceProfile& device,
                  const energy::CapacitorConfig& capConfig, int jitRamWords,
                  std::size_t memWords)
{
    Core core(program, memWords);
    std::uint64_t consumed = 0;
    core.machine.run(10000, &consumed);  // a mid-program context

    energy::Capacitor cap(capConfig);
    const double epc = device.power.energyPerCycleJ;
    const double floorJ =
        0.5 * cap.capacitance() * device.vOff * device.vOff;
    auto spend = [&](int cycles) {
        const double e = cycles * epc;
        if (cap.energy() - e <= floorJ)
            return false;
        cap.discharge(e);
        return true;
    };
    const int wordsPerImage =
        jitRamWords + static_cast<int>(sim::Nvm::kJitWords);
    std::uint64_t words = 0;
    double seconds = 0.0;
    for (int rep = 0; rep < 10000 && seconds < 0.03; ++rep) {
        cap.setVoltage(capConfig.initialV);
        const auto t0 = Clock::now();
        sim::JitResult r = sim::JitCheckpoint::checkpoint(
            core.machine, core.nvm, spend, jitRamWords);
        seconds += secondsSince(t0);
        if (!r.complete)
            throw std::runtime_error("jit probe: checkpoint torn on a full "
                                     "buffer");
        words += static_cast<std::uint64_t>(wordsPerImage);
    }
    return words ? seconds * 1e9 / static_cast<double>(words) : 0.0;
}

double
probeAnalogNsPerSample(const std::vector<RigPoint>& rigs)
{
    if (rigs.empty())
        return 0.0;
    const int perRig =
        std::max(20000, 400000 / static_cast<int>(rigs.size()));
    double seconds = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t events = 0;
    for (const RigPoint& rp : rigs) {
        attack::RemoteRig rig(*rp.device, rp.kind, rp.distanceM);
        attack::EmiSource source(rig, rp.freqHz, rp.powerDbm);
        auto monitor = rp.device->makeMonitor(rp.kind);
        const double interval = monitor->sampleIntervalS();
        // A rail sagging slowly across the backup threshold, so the
        // monitor's edge logic runs as it does in a job.
        const double vHi = rp.device->vOn + 0.1;
        const double vLo = rp.device->vBackup - 0.1;
        monitor->reset(vHi);
        const bool envelope = rp.attacked && monitor->continuous();
        const auto t0 = Clock::now();
        double t = 0.0;
        for (int i = 0; i < perRig; ++i) {
            t += interval;
            const double frac = static_cast<double>(i % 4096) / 4096.0;
            const double v = vHi - (vHi - vLo) * frac;
            analog::MonitorEvent ev;
            if (envelope) {
                const double a = source.amplitude();
                ev = monitor->observeEnvelope(v - a, v + a);
            } else if (rp.attacked) {
                ev = monitor->observe(v + source.voltageAt(t));
            } else {
                ev = monitor->observe(v);
            }
            events += static_cast<std::uint64_t>(ev.backup) + ev.wake;
        }
        seconds += secondsSince(t0);
        samples += static_cast<std::uint64_t>(perRig);
    }
    gSink.fetch_add(events, std::memory_order_relaxed);
    return seconds * 1e9 / static_cast<double>(samples);
}

}  // namespace simbench
