#ifndef GECKO_ENERGY_HARVESTER_HPP_
#define GECKO_ENERGY_HARVESTER_HPP_

#include <memory>
#include <vector>

/**
 * @file
 * Ambient-energy harvester models.
 *
 * A harvester is a time-varying Thevenin source (open-circuit voltage +
 * series resistance) feeding the capacitor.  The square-wave model
 * reproduces the paper's 1 Hz-outage power generator (§VII-B3); the trace
 * model replays arbitrary RF harvesting profiles like the Powercast
 * P2110 setup of §VII-B4.
 */

namespace gecko::energy {

/** Time-varying Thevenin source abstraction. */
class Harvester
{
  public:
    virtual ~Harvester() = default;

    /** Open-circuit voltage at time `t` (seconds). */
    virtual double openCircuitVoltage(double t) const = 0;

    /** Source series resistance at time `t` (ohm). */
    virtual double seriesResistance(double t) const = 0;

    /**
     * True if the source is time-invariant on [t, t+dt) — lets the
     * simulator take closed-form charging steps.
     */
    virtual bool steadyOver(double t, double dt) const = 0;

    /**
     * Sound steadiness: true only if `openCircuitVoltage` and
     * `seriesResistance` provably return the *same values* for every
     * instant in [t, t+dt].  Unlike `steadyOver` (a heuristic some
     * models answer by endpoint comparison), a `true` here is a hard
     * guarantee — the fused quantum kernel replays per-quantum
     * charging with one sampled (vOc, Rs) pair and must match the
     * stepped simulation bit-for-bit.  Default: unknown ⇒ false.
     */
    virtual bool constantOver(double t, double dt) const
    {
        (void)t;
        (void)dt;
        return false;
    }
};

/** Constant source (bench power supply / strong RF field). */
class ConstantHarvester : public Harvester
{
  public:
    ConstantHarvester(double vOc, double rSeries)
        : vOc_(vOc), rSeries_(rSeries) {}

    double openCircuitVoltage(double) const override { return vOc_; }
    double seriesResistance(double) const override { return rSeries_; }
    bool steadyOver(double, double) const override { return true; }
    bool constantOver(double, double) const override { return true; }

  private:
    double vOc_;
    double rSeries_;
};

/**
 * Square-wave source: `onSeconds` of supply followed by
 * `offSeconds` of nothing, repeating (the paper's GPIO power generator
 * inducing outages at 1 Hz).
 */
class SquareWaveHarvester : public Harvester
{
  public:
    SquareWaveHarvester(double vOc, double rSeries, double onSeconds,
                        double offSeconds)
        : vOc_(vOc), rSeries_(rSeries), on_(onSeconds), off_(offSeconds) {}

    double openCircuitVoltage(double t) const override
    {
        return isOn(t) ? vOc_ : 0.0;
    }
    double seriesResistance(double) const override { return rSeries_; }
    bool steadyOver(double t, double dt) const override;
    /// steadyOver already proves "no on/off edge inside the span",
    /// which for a square wave is exact constancy.
    bool constantOver(double t, double dt) const override
    {
        return steadyOver(t, dt);
    }

  private:
    bool isOn(double t) const;

    double vOc_;
    double rSeries_;
    double on_;
    double off_;
};

/**
 * Trace-driven source: open-circuit voltage samples at a fixed interval,
 * looped.  Used to replay recorded RF power traces.
 */
class TraceHarvester : public Harvester
{
  public:
    TraceHarvester(std::vector<double> vocSamples, double sampleIntervalS,
                   double rSeries);

    double openCircuitVoltage(double t) const override;
    double seriesResistance(double) const override { return rSeries_; }
    bool steadyOver(double t, double dt) const override;
    bool constantOver(double t, double dt) const override;

  private:
    std::size_t indexAt(double t) const;

    std::vector<double> samples_;
    double interval_;
    double rSeries_;
};

/**
 * Synthetic Powercast-like RF harvesting trace: a pseudo-random but
 * deterministic mix of strong and weak harvest intervals around a mean
 * duty cycle, causing roughly `outageRateHz` outages per second.
 */
TraceHarvester makeRfTrace(double vOc, double rSeries, double outageRateHz,
                           double onFraction, double durationS,
                           unsigned seed = 1);

}  // namespace gecko::energy

#endif  // GECKO_ENERGY_HARVESTER_HPP_
