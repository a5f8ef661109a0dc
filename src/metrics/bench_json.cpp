#include "metrics/bench_json.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

namespace gecko::metrics {

namespace {

/** Format a double compactly ("0.123456"), locale-independent. */
std::string
num(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", x);
    return buf;
}

/** Cut a torn tail: truncate `fd` to just after its last '\n' (to
 *  empty when it has none). */
bool
cutTornTail(int fd)
{
    const off_t end = ::lseek(fd, 0, SEEK_END);
    off_t keep = end;
    char c = 0;
    for (; keep > 0; --keep) {
        if (::pread(fd, &c, 1, keep - 1) != 1)
            return false;
        if (c == '\n')
            break;
    }
    return end >= 0 && (keep == end || ::ftruncate(fd, keep) == 0);
}

}  // namespace

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
BenchReport::toJson() const
{
    std::ostringstream os;
    os << "{\"schema_version\":" << schemaVersion
       << ",\"figure\":\"" << jsonEscape(figure) << "\""
       << ",\"threads\":" << threads << ",\"host_cores\":" << hostCores
       << ",\"seed\":" << seed
       << ",\"defense_mode\":\"" << jsonEscape(defenseMode) << "\""
       << ",\"exec_backend\":\"" << jsonEscape(execBackend) << "\""
       << ",\"wall_s\":" << num(wallS);
    if (serialWallS > 0)
        os << ",\"serial_wall_s\":" << num(serialWallS)
           << ",\"speedup\":" << num(speedup());
    os << ",\"sim_cycles\":" << simCycles << ",\"sim_cycles_per_s\":"
       << num(wallS > 0 ? static_cast<double>(simCycles) / wallS : 0.0)
       << ",\"quanta\":" << quanta
       << ",\"sleep_quanta\":" << sleepQuanta
       << ",\"coalesced_quanta\":" << coalescedQuanta
       << ",\"fused_quanta\":" << fusedQuanta
       << ",\"quanta_per_s\":"
       << num(wallS > 0 ? static_cast<double>(quanta) / wallS : 0.0);
    if (!status.empty())
        os << ",\"status\":\"" << jsonEscape(status) << "\"";
    os << ",\"corrupted_restores\":" << corruptedRestores
       << ",\"crc_rejects\":" << crcRejects
       << ",\"retries_exhausted\":" << retriesExhausted;
    if (!traceOut.empty())
        os << ",\"trace_out\":\"" << jsonEscape(traceOut) << "\"";
    if (!figureData.empty())
        os << ",\"figure_data\":" << figureData;
    os << ",\"sweeps\":[";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepRecord& s = sweeps[i];
        if (i)
            os << ",";
        os << "{\"label\":\"" << jsonEscape(s.label) << "\""
           << ",\"tasks\":" << s.tasks << ",\"threads\":" << s.threads
           << ",\"wall_s\":" << num(s.wallS)
           << ",\"task_s\":" << num(s.taskS) << "}";
    }
    os << "]}";
    return os.str();
}

JsonlWriter::JsonlWriter(const std::string& path, bool append,
                         std::size_t syncEvery)
    : syncEvery_(syncEvery)
{
    int flags = O_RDWR | O_CREAT | (append ? O_APPEND : O_TRUNC);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ >= 0 && append && !cutTornTail(fd_))
        failed_ = true;
}

JsonlWriter::~JsonlWriter()
{
    if (fd_ >= 0) {
        ::fsync(fd_);
        ::close(fd_);
    }
}

bool
JsonlWriter::append(const std::string& line)
{
    if (!ok())
        return false;
    // Stage the full record — payload plus terminator — in one buffer
    // so no code path can write a line without its '\n'.
    std::string record = line;
    record.push_back('\n');

    const char* p = record.data();
    std::size_t left = record.size();
    int attempt = 0;
    constexpr int kMaxAttempts = 8;
    while (left > 0) {
        ssize_t n = ::write(fd_, p, left);
        if (n == static_cast<ssize_t>(left))
            break;
        if (n < 0 && errno != EINTR && errno != EAGAIN) {
            failed_ = true;
            return false;
        }
        if (n > 0) {
            p += n;
            left -= static_cast<std::size_t>(n);
            ++shortWrites_;
        }
        if (++attempt > kMaxAttempts) {
            failed_ = true;
            return false;
        }
        // Linear backoff: transient pressure (EINTR storms, a full
        // pipe) gets room to clear before the budget runs out.
        std::this_thread::sleep_for(std::chrono::milliseconds(attempt));
    }
    ++records_;
    if (syncEvery_ > 0 && ++sinceSync_ >= syncEvery_)
        return sync();
    return true;
}

bool
JsonlWriter::sync()
{
    if (!ok())
        return false;
    sinceSync_ = 0;
    if (::fsync(fd_) != 0) {
        failed_ = true;
        return false;
    }
    ++syncs_;
    return true;
}

}  // namespace gecko::metrics
