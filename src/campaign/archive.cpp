#include "campaign/archive.hpp"

#include <algorithm>

#include "sim/nvm.hpp"

namespace gecko::campaign {

namespace {

constexpr char kMagic[4] = {'G', 'S', 'N', 'P'};
constexpr std::size_t kHeader = 4 + 4 + 8;

void
putU32(std::uint8_t* p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU64(std::uint8_t* p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
getU32(const std::uint8_t* p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t* p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

}  // namespace

std::uint32_t
crc32Bytes(const std::uint8_t* data, std::size_t n, std::uint32_t crc)
{
    const auto& table = sim::detail::kCrcTable.entries[0];
    for (std::size_t i = 0; i < n; ++i)
        crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
    return crc;
}

std::vector<std::uint8_t>
sealContainer(std::uint32_t version, const std::vector<std::uint8_t>& payload)
{
    // Sized once and written in place: magic, version, payload length,
    // payload, CRC.
    std::vector<std::uint8_t> out(kHeader + payload.size() + 4);
    std::copy(kMagic, kMagic + 4, out.begin());
    putU32(out.data() + 4, version);
    putU64(out.data() + 8, payload.size());
    std::copy(payload.begin(), payload.end(), out.begin() + kHeader);
    putU32(out.data() + kHeader + payload.size(),
           crc32Bytes(payload.data(), payload.size()));
    return out;
}

std::vector<std::uint8_t>
openContainer(const std::vector<std::uint8_t>& bytes,
              std::uint32_t expectVersion)
{
    if (bytes.size() < kHeader + 4)
        throw SnapshotError("snapshot: container too short");
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        throw SnapshotError("snapshot: bad magic");
    std::uint32_t version = getU32(bytes.data() + 4);
    if (version != expectVersion)
        throw SnapshotError("snapshot: version " + std::to_string(version) +
                            " (expected " + std::to_string(expectVersion) +
                            ")");
    std::uint64_t len = getU64(bytes.data() + 8);
    if (len != bytes.size() - kHeader - 4)
        throw SnapshotError("snapshot: payload length mismatch");
    std::uint32_t want = getU32(bytes.data() + kHeader + len);
    std::uint32_t got =
        crc32Bytes(bytes.data() + kHeader, static_cast<std::size_t>(len));
    if (want != got)
        throw SnapshotError("snapshot: CRC mismatch");
    return std::vector<std::uint8_t>(bytes.begin() + kHeader,
                                     bytes.begin() + kHeader +
                                         static_cast<std::ptrdiff_t>(len));
}

}  // namespace gecko::campaign
