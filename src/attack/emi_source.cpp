#include "attack/emi_source.hpp"

#include <cmath>

#include "campaign/archive.hpp"
#include "trace/trace.hpp"

namespace gecko::attack {

namespace {

/** Offset-encoded milli-dBm (+200 dBm bias keeps the payload unsigned). */
[[maybe_unused]] std::uint64_t
traceMilliDbm(double powerDbm)
{
    const double biased = (powerDbm + 200.0) * 1000.0;
    return biased > 0 ? static_cast<std::uint64_t>(std::llround(biased)) : 0;
}

}  // namespace

EmiSource::EmiSource(const InjectionRig& rig, double freqHz,
                     double powerDbm, double clockSkewPpm)
    : rig_(rig), freqHz_(freqHz), powerDbm_(powerDbm),
      amplitude_(rig.amplitude(freqHz, powerDbm)), skewPpm_(clockSkewPpm)
{
}

void
EmiSource::setEnabled(bool enabled)
{
    if (enabled == enabled_)
        return;
    enabled_ = enabled;
    if (enabled) {
        GECKO_TRACE_EVENT(trace::EventKind::kEmiOn, 0,
                          static_cast<std::uint64_t>(freqHz_),
                          traceMilliDbm(powerDbm_));
        if (hasGridTag_) {
            GECKO_TRACE_EVENT(trace::EventKind::kSpatialHit, 0, gridCell_,
                              gridCouplingMilli_);
        }
    } else {
        GECKO_TRACE_EVENT(trace::EventKind::kEmiOff, 0,
                          static_cast<std::uint64_t>(freqHz_),
                          traceMilliDbm(powerDbm_));
    }
}

void
EmiSource::setGridTag(std::uint64_t cell, std::uint64_t couplingMilli)
{
    hasGridTag_ = true;
    gridCell_ = cell;
    gridCouplingMilli_ = couplingMilli;
}

void
EmiSource::setTone(double freqHz, double powerDbm)
{
    freqHz_ = freqHz;
    powerDbm_ = powerDbm;
    amplitude_ = rig_.amplitude(freqHz, powerDbm);
}

void
EmiSource::archiveState(campaign::Archive& ar)
{
    ar.section("emi_source");
    // Fields restored directly: setEnabled/setTone trace edges, and a
    // restore is not an edge.
    ar.f64(freqHz_);
    ar.f64(powerDbm_);
    ar.f64(amplitude_);
    ar.boolean(enabled_);
    ar.boolean(hasGridTag_);
    ar.u64(gridCell_);
    ar.u64(gridCouplingMilli_);
}

}  // namespace gecko::attack
