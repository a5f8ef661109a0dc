#ifndef GECKO_CAMPAIGN_ARCHIVE_HPP_
#define GECKO_CAMPAIGN_ARCHIVE_HPP_

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

/**
 * @file
 * Bidirectional byte-stream archive for simulator snapshots.
 *
 * One `archiveState(Archive&)` method per component lists its fields
 * once; the same list runs in save and load mode, so the two directions
 * cannot drift apart (the classic save/load asymmetry bug).  The
 * archive is little-endian, fixed-width, and deliberately free of any
 * simulator dependency so `sim/` and `energy/` translation units can
 * include it without a layering cycle.
 *
 * Container framing (snapshot files / blobs):
 *
 *     "GSNP" | u32 version | u64 payload length | payload | u32 CRC-32
 *
 * `sealContainer` wraps a payload; `openContainer` validates magic,
 * version, length, and CRC before a single field is decoded, throwing
 * `SnapshotError` on any mismatch.  Load-mode reads are bounds-checked:
 * a truncated or oversized payload can never read past its buffer.
 */

namespace gecko::campaign {

/** Any snapshot decode/validation failure. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Byte-wise CRC-32 (reflected 0xEDB88320, init 0, no final xor) over
 * the simulator's table (`sim::detail::kCrcTable`): over the
 * little-endian bytes of words it equals `sim::crc32Words`.
 */
std::uint32_t crc32Bytes(const std::uint8_t* data, std::size_t n,
                         std::uint32_t crc = 0);

/** Field-list serializer; see file comment. */
class Archive
{
  public:
    /** Fresh archive in save mode. */
    static Archive saver() { return Archive(true, {}); }

    /** Archive in load mode over a raw (container-free) payload. */
    static Archive loader(std::vector<std::uint8_t> payload)
    {
        return Archive(false, std::move(payload));
    }

    bool saving() const { return saving_; }

    // ------------------------------------------------------------------
    // Scalar fields.
    // ------------------------------------------------------------------
    void u8(std::uint8_t& v) { bytes(&v, 1); }

    void u16(std::uint16_t& v) { fixed(v); }
    void u32(std::uint32_t& v) { fixed(v); }
    void u64(std::uint64_t& v) { fixed(v); }

    void i32(std::int32_t& v)
    {
        std::uint32_t u = static_cast<std::uint32_t>(v);
        fixed(u);
        v = static_cast<std::int32_t>(u);
    }

    void i64(std::int64_t& v)
    {
        std::uint64_t u = static_cast<std::uint64_t>(v);
        fixed(u);
        v = static_cast<std::int64_t>(u);
    }

    /**
     * Doubles travel as their IEEE-754 bit pattern, so a restored value
     * is the *identical* double (including -0.0 and NaN payloads) — a
     * textual round-trip would not be, and the bit-identical oracle
     * would catch it.
     */
    void f64(double& v)
    {
        std::uint64_t bits = 0;
        if (saving_)
            std::memcpy(&bits, &v, sizeof bits);
        fixed(bits);
        if (!saving_)
            std::memcpy(&v, &bits, sizeof v);
    }

    void boolean(bool& v)
    {
        std::uint8_t b = v ? 1 : 0;
        u8(b);
        if (!saving_) {
            if (b > 1)
                throw SnapshotError("archive: bad boolean encoding");
            v = b != 0;
        }
    }

    // ------------------------------------------------------------------
    // Aggregates.
    // ------------------------------------------------------------------
    /** Fixed-length word span: length is structural, not encoded. */
    void u32Span(std::uint32_t* p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            u32(p[i]);
    }

    template <std::size_t N>
    void u32Array(std::array<std::uint32_t, N>& a)
    {
        u32Span(a.data(), N);
    }

    /**
     * Fixed-capacity word vector: the length is validated, never
     * resized — component buffers (NVM data, trace rings) are sized by
     * configuration, and a snapshot for a different configuration must
     * be rejected, not adapted.
     */
    void u32FixedVector(std::vector<std::uint32_t>& v, const char* what)
    {
        std::uint64_t n = v.size();
        fixed(n);
        if (!saving_ && n != v.size())
            throw SnapshotError(std::string("archive: ") + what +
                                " length mismatch");
        u32Span(v.data(), v.size());
    }

    /** Structural tag: save writes it, load verifies it. */
    void section(const char* name)
    {
        std::uint32_t tag = 0x811c9dc5u;  // FNV-1a over the name
        for (const char* p = name; *p; ++p)
            tag = (tag ^ static_cast<std::uint8_t>(*p)) * 0x01000193u;
        std::uint32_t seen = tag;
        fixed(seen);
        if (!saving_ && seen != tag)
            throw SnapshotError(
                std::string("archive: section mismatch at ") + name);
    }

    /**
     * Configuration guard: the saver records `value`; the loader
     * compares it against the restoring simulator's own value and
     * throws when a snapshot is being forced into a differently
     * configured instance.
     */
    void check(std::uint64_t value, const char* what)
    {
        std::uint64_t seen = value;
        fixed(seen);
        if (!saving_ && seen != value)
            throw SnapshotError(std::string("archive: ") + what +
                                " mismatch (snapshot " +
                                std::to_string(seen) + ", instance " +
                                std::to_string(value) + ")");
    }

    // ------------------------------------------------------------------
    // Termination.
    // ------------------------------------------------------------------
    /** Save mode: surrender the accumulated payload. */
    std::vector<std::uint8_t> takePayload()
    {
        return std::move(buf_);
    }

    /** Load mode: all payload bytes must have been consumed. */
    void finishLoad() const
    {
        if (pos_ != buf_.size())
            throw SnapshotError("archive: trailing bytes in payload");
    }

  private:
    Archive(bool saving, std::vector<std::uint8_t> buf)
        : saving_(saving), buf_(std::move(buf))
    {
    }

    void bytes(std::uint8_t* p, std::size_t n)
    {
        if (saving_) {
            buf_.insert(buf_.end(), p, p + n);
        } else {
            if (buf_.size() - pos_ < n)
                throw SnapshotError("archive: payload truncated");
            std::memcpy(p, buf_.data() + pos_, n);
            pos_ += n;
        }
    }

    template <class T>
    void fixed(T& v)
    {
        static_assert(std::is_unsigned_v<T>);
        std::uint8_t raw[sizeof(T)];
        if (saving_) {
            for (std::size_t i = 0; i < sizeof(T); ++i)
                raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
        bytes(raw, sizeof(T));
        if (!saving_) {
            v = 0;
            for (std::size_t i = 0; i < sizeof(T); ++i)
                v |= static_cast<T>(raw[i]) << (8 * i);
        }
    }

    bool saving_;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

/** Wrap `payload` in the versioned, CRC-guarded container. */
std::vector<std::uint8_t> sealContainer(std::uint32_t version,
                                        const std::vector<std::uint8_t>& payload);

/**
 * Validate a container (magic, version, length, CRC) and return its
 * payload.  @throws SnapshotError on any mismatch.
 */
std::vector<std::uint8_t> openContainer(const std::vector<std::uint8_t>& bytes,
                                        std::uint32_t expectVersion);

}  // namespace gecko::campaign

#endif  // GECKO_CAMPAIGN_ARCHIVE_HPP_
