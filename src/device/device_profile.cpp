#include "device/device_profile.hpp"

namespace gecko::device {

std::unique_ptr<analog::VoltageMonitor>
DeviceProfile::makeMonitor(analog::MonitorKind kind, double vBackupV) const
{
    if (kind == analog::MonitorKind::kAdc) {
        return std::make_unique<analog::AdcMonitor>(
            adcBits, vccNominal, vBackupV, vOn, adcSampleHz);
    }
    return std::make_unique<analog::ComparatorMonitor>(
        vBackupV, vOn, compHysteresisV, compCheckHz);
}

}  // namespace gecko::device
