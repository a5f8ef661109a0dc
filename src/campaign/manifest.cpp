#include "campaign/manifest.hpp"

#include <algorithm>
#include <sstream>

#include "metrics/json.hpp"

namespace gecko::campaign {

const char*
jobStateName(JobState s)
{
    switch (s) {
        case JobState::kPending: return "pending";
        case JobState::kRunning: return "running";
        case JobState::kDone: return "done";
        case JobState::kFailed: return "failed";
        case JobState::kQuarantined: return "quarantined";
    }
    return "unknown";
}

std::string
ManifestRecord::toJsonl() const
{
    std::ostringstream os;
    os << "{\"job\":" << job << ",\"state\":\"" << jobStateName(state)
       << "\",\"attempt\":" << attempt << ",\"slices\":" << slices;
    if (!note.empty())
        os << ",\"note\":\"" << metrics::jsonEscape(note) << "\"";
    os << "}";
    return os.str();
}

ManifestWriter::ManifestWriter(const std::string& path,
                               std::size_t syncEvery)
    : out_(path, /*append=*/true, syncEvery)
{
}

bool
ManifestWriter::header(std::uint64_t totalJobs, std::uint64_t configHash,
                       std::uint64_t seed)
{
    std::ostringstream os;
    // config/seed are full u64s, quoted; the quoting stays for wire
    // stability with existing journals.
    os << "{\"manifest\":\"gecko-campaign\",\"version\":1,\"jobs\":"
       << totalJobs << ",\"config\":\"" << configHash << "\",\"seed\":\""
       << seed << "\"}";
    // The header is the journal's identity: land it durably before any
    // job record can reference it.
    return out_.append(os.str()) && out_.sync();
}

bool
ManifestWriter::append(const ManifestRecord& rec)
{
    return out_.append(rec.toJsonl());
}

namespace {

bool
parseState(const std::string& name, JobState* out)
{
    for (JobState s : {JobState::kPending, JobState::kRunning,
                       JobState::kDone, JobState::kFailed,
                       JobState::kQuarantined}) {
        if (name == jobStateName(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

}  // namespace

ManifestRecovery
readManifest(const std::string& path)
{
    ManifestRecovery rec;
    rec.tornLines = metrics::readJsonl(path, [&](const metrics::JsonValue& v) {
        if (v.get("manifest")) {
            std::uint64_t jobs = 0, config = 0, seed = 0;
            if (!v.at("jobs", &jobs) || !v.quotedU64At("config", &config) ||
                !v.quotedU64At("seed", &seed))
                return false;
            rec.hasHeader = true;
            rec.totalJobs = jobs;
            rec.configHash = config;
            rec.seed = seed;
            return true;
        }
        ManifestRecord r;
        std::string state;
        std::uint64_t attempt = 0;
        if (!v.at("job", &r.job) || !v.at("state", &state) ||
            !parseState(state, &r.state) || !v.at("attempt", &attempt) ||
            !v.at("slices", &r.slices))
            return false;
        r.attempt = static_cast<std::uint32_t>(attempt);
        rec.latest[r.job] = r;
        rec.maxJob = std::max(rec.maxJob, r.job);
        rec.sawAnyJob = true;
        return true;
    });
    return rec;
}

}  // namespace gecko::campaign
