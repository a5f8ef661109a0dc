#include "campaign/aggregate.hpp"

#include <sstream>

#include "metrics/bench_json.hpp"

namespace gecko::campaign {

namespace {

// Field table: one row per streamed counter keeps toJsonl/fromJsonl/
// add/toJson in lockstep (a missed field here is a silent aggregate
// hole, so there is exactly one place to list them).
struct Field {
    const char* key;
    std::uint64_t JobResult::* result;
    std::uint64_t GroupTotals::* total;
};

constexpr Field kFields[] = {
    {"slices", &JobResult::slices, &GroupTotals::slices},
    {"instrs", &JobResult::instrs, &GroupTotals::instrs},
    {"cycles", &JobResult::cycles, &GroupTotals::cycles},
    {"completions", &JobResult::completions, &GroupTotals::completions},
    {"reboots", &JobResult::reboots, &GroupTotals::reboots},
    {"hard_deaths", &JobResult::hardDeaths, &GroupTotals::hardDeaths},
    {"backup_signals", &JobResult::backupSignals,
     &GroupTotals::backupSignals},
    {"ckpt_attempts", &JobResult::ckptAttempts,
     &GroupTotals::ckptAttempts},
    {"ckpt_complete", &JobResult::ckptComplete,
     &GroupTotals::ckptComplete},
    {"ckpt_torn", &JobResult::ckptTorn, &GroupTotals::ckptTorn},
    {"missed_ckpts", &JobResult::missedCkpts, &GroupTotals::missedCkpts},
    {"rollbacks", &JobResult::rollbacks, &GroupTotals::rollbacks},
    {"corrupted_restores", &JobResult::corruptedRestores,
     &GroupTotals::corruptedRestores},
    {"crc_rejects", &JobResult::crcRejects, &GroupTotals::crcRejects},
    {"retries_exhausted", &JobResult::retriesExhausted,
     &GroupTotals::retriesExhausted},
    {"escalations", &JobResult::escalations, &GroupTotals::escalations},
    {"de_escalations", &JobResult::deEscalations,
     &GroupTotals::deEscalations},
    {"commits", &JobResult::commits, &GroupTotals::commits},
};

}  // namespace

std::string
JobResult::toJsonl() const
{
    std::ostringstream os;
    os << "{\"job\":" << job << ",\"group\":\""
       << metrics::jsonEscape(group) << "\"";
    for (const Field& f : kFields)
        os << ",\"" << f.key << "\":" << this->*f.result;
    os << "}";
    return os.str();
}

std::optional<JobResult>
JobResult::fromJson(const metrics::JsonValue& v)
{
    JobResult r;
    if (!v.at("job", &r.job) || !v.at("group", &r.group))
        return std::nullopt;
    for (const Field& f : kFields)
        if (!v.at(f.key, &(r.*f.result)))
            return std::nullopt;
    return r;
}

std::optional<JobResult>
JobResult::fromJsonl(const std::string& line)
{
    metrics::JsonValue v;
    return metrics::parseJson(line, &v) ? fromJson(v) : std::nullopt;
}

Aggregator::Aggregator(std::uint64_t totalJobs)
    : seen_(static_cast<std::size_t>(totalJobs), false)
{
}

bool
Aggregator::add(const JobResult& r)
{
    if (r.job < seen_.size()) {
        if (seen_[r.job])
            return false;
        seen_[r.job] = true;
    }
    ++jobCount_;
    GroupTotals& g = groups_[r.group];
    ++g.jobs;
    for (const Field& f : kFields)
        g.*f.total += r.*f.result;
    return true;
}

std::string
Aggregator::toJson(std::uint64_t totalJobs, std::uint64_t configHash,
                   std::uint64_t seed) const
{
    std::ostringstream os;
    // config/seed quoted, like the manifest header, for wire
    // stability.
    // v5: per-group `commits` (committed-region progress counter).
    os << "{\"schema_version\":" << 5
       << ",\"figure\":\"campaign\",\"jobs_total\":" << totalJobs
       << ",\"jobs_done\":" << jobCount_ << ",\"config\":\"" << configHash
       << "\",\"seed\":\"" << seed << "\",\"groups\":[";
    bool first = true;
    for (const auto& [key, g] : groups_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"group\":\"" << metrics::jsonEscape(key)
           << "\",\"jobs\":" << g.jobs;
        for (const Field& f : kFields)
            os << ",\"" << f.key << "\":" << g.*f.total;
        os << "}";
    }
    os << "]}";
    return os.str();
}

}  // namespace gecko::campaign
