#ifndef GECKO_CAMPAIGN_SCENARIO_HPP_
#define GECKO_CAMPAIGN_SCENARIO_HPP_

#include <cstdint>
#include <string>
#include <vector>

/**
 * @file
 * The attack scenario of a campaign job: the EMI environment (tone or
 * burst schedule, spatial grid cell, duty cycle, envelope) and the
 * harvester-outage environment.  One type for the campaign engine's
 * job space and the "scenario" section of a declarative spec
 * (fault/spec), so a spec's scenario is a job's scenario as parsed.
 */

namespace gecko::campaign {

/** Attack scenario applied to a job's victim. */
enum class ScenarioKind : std::uint8_t {
    kClean = 0,   ///< No attacker.
    kTone = 1,    ///< Continuous tone for the whole run.
    kBurst = 2,   ///< Seed-derived windows of tone (AttackSchedule).
};

/** Wire name of a kind ("clean", "tone", "burst"). */
inline const char*
scenarioName(ScenarioKind kind)
{
    switch (kind) {
        case ScenarioKind::kClean: return "clean";
        case ScenarioKind::kTone: return "tone";
        case ScenarioKind::kBurst: return "burst";
    }
    return "unknown";
}

struct Scenario {
    ScenarioKind kind = ScenarioKind::kClean;
    double freqHz = 27e6;
    double powerDbm = 35.0;
    /// Optional stable label: a named scenario aggregates under (and
    /// hashes as) its name instead of its kind, so many same-kind
    /// variants (e.g. adversarial-search candidates) stay distinct
    /// groups.  "" = historical kind-keyed behaviour.
    std::string name;
    /// Spatial injection position (attack::SpatialGrid): gridRows > 0
    /// places the attacker at cell (gridRow, gridCol) of a rows x cols
    /// map and scales the rig's coupling accordingly.  0 = the
    /// historical position-free rig (and the historical configHash).
    int gridRows = 0;
    int gridCols = 0;
    int gridRow = 0;
    int gridCol = 0;
    /// Explicit burst schedule: burstCount > 0 replaces the
    /// seed-derived windows of kBurst with `burstCount` windows of
    /// `burstOnS` seconds separated by `burstGapS` gaps.
    int burstCount = 0;
    double burstOnS = 0.0;
    double burstGapS = 0.0;
    // --- spec schema v2 attack-schedule scripting ---
    /// Duty cycling (dutyPeriodS > 0 enables): the carrier is on for
    /// `dutyOnFrac` of every `dutyPeriodS` period, expressed as an
    /// explicit AttackSchedule over the whole job.  Applies to kTone
    /// (windowed tone) and kBurst.
    double dutyPeriodS = 0.0;
    double dutyOnFrac = 0.0;
    /// Offset of the first attack window (duty or explicit burst).
    double phaseS = 0.0;
    /// Piecewise amplitude envelope: per-window carrier power (dBm),
    /// cycling over the windows.  Empty = flat powerDbm.
    std::vector<double> envelopeDbm;
    /// Harvester outage environment (outagePeriodS > 0 enables): the
    /// supply is up for `outageOnFrac` of every period and collapses
    /// for the rest (SquareWaveHarvester), so burst phase can lock to
    /// harvester outages.  0 = the historical constant supply.
    double outagePeriodS = 0.0;
    double outageOnFrac = 0.0;
};

}  // namespace gecko::campaign

#endif  // GECKO_CAMPAIGN_SCENARIO_HPP_
