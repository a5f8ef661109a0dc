#ifndef GECKO_ANALOG_VOLTAGE_MONITOR_HPP_
#define GECKO_ANALOG_VOLTAGE_MONITOR_HPP_

#include <memory>

#include "analog/adc.hpp"
#include "analog/comparator.hpp"

/**
 * @file
 * Voltage monitors — the heart (and attack surface) of the intermittent
 * system (paper §II-C).
 *
 * The monitor periodically observes what it believes to be V_CC (the
 * real capacitor voltage plus any EMI-induced component) and emits
 *  - a *backup* event on a downward crossing of V_backup (triggering the
 *    JIT checkpoint), and
 *  - a *wake* event on an upward crossing of V_on (triggering restore).
 */

namespace gecko::campaign {
class Archive;
}

namespace gecko::analog {

/** Signals emitted by a monitor at one observation. */
struct MonitorEvent {
    bool backup = false;
    bool wake = false;
};

/** Monitor kinds present on the paper's evaluation boards. */
enum class MonitorKind {
    kAdc,
    kComparator,
};

/** @return display name of a monitor kind. */
const char* monitorKindName(MonitorKind kind);

/** Abstract voltage monitor. */
class VoltageMonitor
{
  public:
    virtual ~VoltageMonitor() = default;

    /**
     * Observe the (possibly EMI-distorted) supply voltage at one sample
     * instant.  Events are edge-triggered: one backup per downward
     * V_backup crossing, one wake per upward V_on crossing.
     */
    virtual MonitorEvent observe(double seenV) = 0;

    /** Interval between observations (s). */
    virtual double sampleIntervalS() const = 0;

    /**
     * True for continuous (analog) monitors: hardware that reacts to any
     * excursion within an observation window, not just the sampled
     * instant.  The simulator then reports the window's envelope
     * (observeEnvelope) instead of point samples.
     */
    virtual bool continuous() const { return false; }

    /**
     * Observe a window during which the input covered
     * [low, high] (continuous monitors only).  Default: trough first,
     * then crest — a backup trigger on the trough re-arms on the crest.
     */
    virtual MonitorEvent observeEnvelope(double low, double high)
    {
        return envelopeOf(*this, low, high);
    }

    /** Re-initialise state as if the supply were at `v`. */
    virtual void reset(double v) = 0;

    /**
     * Serialize/restore the edge-detection latches (thresholds and
     * rates are construction parameters, not archived).
     */
    virtual void archiveState(campaign::Archive& ar) = 0;

  protected:
    /** observeEnvelope's order, on `monitor`'s static type. */
    template <class Monitor>
    static MonitorEvent envelopeOf(Monitor& monitor, double low,
                                   double high)
    {
        MonitorEvent trough = monitor.observe(low);
        MonitorEvent crest = monitor.observe(high);
        MonitorEvent ev;
        ev.backup = trough.backup || crest.backup;
        ev.wake = trough.wake || crest.wake;
        return ev;
    }
};

/**
 * ADC-based monitor (Fig. 2a): samples V_CC at a modest rate through an
 * n-bit converter and compares codes against the thresholds.  The slow
 * sampling is exactly what makes it aliasing-prone under EMI.
 *
 * `final`, with the observation inline, so the simulator's fused
 * EMI-active kernel binds it statically once per run instead of making
 * a virtual call per sample.
 */
class AdcMonitor final : public VoltageMonitor
{
  public:
    /**
     * @param adcBits   converter resolution
     * @param fullScaleV converter full scale
     * @param vBackup   checkpoint threshold
     * @param vWake     restore threshold (V_on)
     * @param sampleHz  conversion rate
     */
    AdcMonitor(int adcBits, double fullScaleV, double vBackup, double vWake,
               double sampleHz);

    MonitorEvent observe(double seenV) override
    {
        MonitorEvent ev;
        std::uint32_t code = adc_.sample(seenV);
        bool below = code < backupCode_;
        bool above = code >= wakeCode_;
        if (below && !belowBackup_)
            ev.backup = true;
        if (above && !aboveWake_)
            ev.wake = true;
        belowBackup_ = below;
        aboveWake_ = above;
        return ev;
    }
    double sampleIntervalS() const override { return 1.0 / sampleHz_; }
    void reset(double v) override;
    void archiveState(campaign::Archive& ar) override;

  private:
    Adc adc_;
    std::uint32_t backupCode_;
    std::uint32_t wakeCode_;
    double sampleHz_;
    bool belowBackup_ = false;
    bool aboveWake_ = true;
};

/**
 * Comparator-based monitor (Fig. 2b): continuous analog hardware with
 * hysteresis.  It catches essentially every EMI trough — which is why
 * the paper measures minimum forward progress two orders of magnitude
 * below the ADC monitors' (Table I).  `final` with inline observations
 * for the same reason as AdcMonitor.
 */
class ComparatorMonitor final : public VoltageMonitor
{
  public:
    /**
     * @param vBackup     checkpoint threshold
     * @param vWake       restore threshold
     * @param hysteresisV comparator hysteresis band
     * @param checkHz     equivalent evaluation rate of the simulation
     */
    ComparatorMonitor(double vBackup, double vWake, double hysteresisV,
                      double checkHz);

    MonitorEvent observe(double seenV) override
    {
        MonitorEvent ev;
        bool backup_was = backupComp_.output();
        bool wake_was = wakeComp_.output();
        bool backup_now = backupComp_.evaluate(seenV);
        bool wake_now = wakeComp_.evaluate(seenV);
        if (backup_was && !backup_now)
            ev.backup = true;
        if (!wake_was && wake_now)
            ev.wake = true;
        return ev;
    }

    /** The base order (trough, then crest), bound statically. */
    MonitorEvent observeEnvelope(double low, double high) override
    {
        return envelopeOf(*this, low, high);
    }

    double sampleIntervalS() const override { return 1.0 / checkHz_; }
    bool continuous() const override { return true; }
    void reset(double v) override;
    void archiveState(campaign::Archive& ar) override;

  private:
    Comparator backupComp_;
    Comparator wakeComp_;
    double checkHz_;
};

}  // namespace gecko::analog

#endif  // GECKO_ANALOG_VOLTAGE_MONITOR_HPP_
