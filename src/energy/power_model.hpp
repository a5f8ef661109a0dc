#ifndef GECKO_ENERGY_POWER_MODEL_HPP_
#define GECKO_ENERGY_POWER_MODEL_HPP_

/**
 * @file
 * CPU power/energy model.
 *
 * Approximates an MSP430FR-class MCU in its worst-case active mode (the
 * paper sizes regions against the worst-case power consumption mode,
 * §VI-B).  Energy is charged per executed cycle; the instruction cycle
 * costs in ir::cycleCost already differentiate FRAM accesses from ALU
 * work.
 */

namespace gecko::energy {

/** Per-cycle CPU energy parameters. */
struct PowerModel {
    /// Core clock (Hz).
    double clockHz = 8e6;
    /// Energy drawn per active cycle (J).  3 nJ ≈ 24 mW at 8 MHz,
    /// worst-case active mode with peripherals.
    double energyPerCycleJ = 3e-9;
    /// Power drawn while sleeping / waiting for wake-up (W).
    double sleepPowerW = 2e-6;

    double secondsPerCycle() const { return 1.0 / clockHz; }

    /** Active power (W). */
    double activePowerW() const { return energyPerCycleJ * clockHz; }
};

}  // namespace gecko::energy

#endif  // GECKO_ENERGY_POWER_MODEL_HPP_
