#include "analog/voltage_monitor.hpp"

#include "campaign/archive.hpp"

namespace gecko::analog {

const char*
monitorKindName(MonitorKind kind)
{
    switch (kind) {
      case MonitorKind::kAdc: return "ADC";
      case MonitorKind::kComparator: return "Comp";
    }
    return "?";
}

AdcMonitor::AdcMonitor(int adcBits, double fullScaleV, double vBackup,
                       double vWake, double sampleHz)
    : adc_(adcBits, fullScaleV), backupCode_(adc_.sample(vBackup)),
      wakeCode_(adc_.sample(vWake)), sampleHz_(sampleHz)
{
}

bool
AdcMonitor::quietRange(double lo, double hi) const
{
    if (lo > hi)
        return false;
    // The ADC transfer curve is monotone, so checking the range
    // endpoints bounds every code the monitor could see.  Each latch
    // must keep its value for all of them; with both latches stable no
    // edge can fire and `observe` is a pure no-op.
    const bool belowStable = belowBackup_
                                 ? adc_.sample(hi) < backupCode_
                                 : adc_.sample(lo) >= backupCode_;
    const bool aboveStable = aboveWake_ ? adc_.sample(lo) >= wakeCode_
                                        : adc_.sample(hi) < wakeCode_;
    return belowStable && aboveStable;
}

void
AdcMonitor::reset(double v)
{
    std::uint32_t code = adc_.sample(v);
    belowBackup_ = code < backupCode_;
    aboveWake_ = code >= wakeCode_;
}

ComparatorMonitor::ComparatorMonitor(double vBackup, double vWake,
                                     double hysteresisV, double checkHz)
    : backupComp_(vBackup, hysteresisV, /*initialHigh=*/true),
      wakeComp_(vWake, hysteresisV, /*initialHigh=*/true),
      checkHz_(checkHz)
{
}

bool
ComparatorMonitor::quietRange(double lo, double hi) const
{
    if (lo > hi)
        return false;
    // A comparator's output only changes by crossing ref ± halfBand in
    // the direction opposite its current state; bound the input range
    // away from the active flank of each comparator.
    const auto stable = [lo, hi](const Comparator& c) {
        return c.output() ? lo >= c.reference() - c.halfBand()
                          : hi <= c.reference() + c.halfBand();
    };
    return stable(backupComp_) && stable(wakeComp_);
}

void
ComparatorMonitor::reset(double v)
{
    backupComp_.reset(v >= backupComp_.reference());
    wakeComp_.reset(v >= wakeComp_.reference());
    // Settle hysteresis state.
    backupComp_.evaluate(v);
    wakeComp_.evaluate(v);
}

void
AdcMonitor::archiveState(campaign::Archive& ar)
{
    ar.section("adc_monitor");
    ar.boolean(belowBackup_);
    ar.boolean(aboveWake_);
}

void
ComparatorMonitor::archiveState(campaign::Archive& ar)
{
    ar.section("comparator_monitor");
    bool backupHigh = backupComp_.output();
    bool wakeHigh = wakeComp_.output();
    ar.boolean(backupHigh);
    ar.boolean(wakeHigh);
    if (!ar.saving()) {
        backupComp_.reset(backupHigh);
        wakeComp_.reset(wakeHigh);
    }
}

}  // namespace gecko::analog
