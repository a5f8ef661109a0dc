#ifndef SIMBENCH_PROBES_HPP_
#define SIMBENCH_PROBES_HPP_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "analog/voltage_monitor.hpp"
#include "compiler/compile_cache.hpp"
#include "device/device_profile.hpp"
#include "energy/capacitor.hpp"

/**
 * @file
 * Calibration probes of the traced run.  Each times one layer's public
 * call in isolation, on inputs the workload itself used, so a layer's
 * share of the simulator's time can be read without instrumenting the
 * library: share = (count the simulator reported) x (probe cost per
 * unit) / (time spent in IntermittentSim::run).
 */

namespace simbench {

/** A program as a job sees it: its workload name (for I/O) and code. */
using NamedProgram =
    std::pair<std::string, gecko::compiler::CompileCache::Ptr>;

/**
 * Machine::run alone on each program (continuous mode, warm block
 * cache), no power failures.  @return host ns per executed instruction.
 */
double probeMachineNsPerInstr(const std::vector<NamedProgram>& programs,
                              std::size_t memWords);

/**
 * JitCheckpoint::checkpoint with a spend callback that debits an
 * energy::Capacitor per word, as the simulator's does.
 * @return host ns per checkpoint word.
 */
double probeJitNsPerWord(const NamedProgram& program,
                         const gecko::device::DeviceProfile& device,
                         const gecko::energy::CapacitorConfig& cap,
                         int jitRamWords, std::size_t memWords);

/** One sensing path: a device's monitor, optionally under a tone. */
struct RigPoint {
    const gecko::device::DeviceProfile* device = nullptr;
    gecko::analog::MonitorKind kind = gecko::analog::MonitorKind::kAdc;
    /// false = no attacker (the monitor sees the rail alone).
    bool attacked = false;
    double freqHz = 0.0;
    double powerDbm = 0.0;
    double distanceM = 0.1;
};

/**
 * EmiSource::voltageAt + VoltageMonitor::observe per sample (the
 * envelope observation for continuous monitors under attack, as the
 * simulator does).  @return host ns per monitor sample.
 */
double probeAnalogNsPerSample(const std::vector<RigPoint>& rigs);

}  // namespace simbench

#endif  // SIMBENCH_PROBES_HPP_
