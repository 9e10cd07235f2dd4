/**
 * @file
 * Sectioned binary serialization for checkpoint files (ladm::snapshot).
 *
 * A checkpoint is a flat byte container:
 *
 *   magic "LADMSNAP" | u32 format version | u64 config fingerprint |
 *   u32 section count | sections...
 *
 * and each section is
 *
 *   u32 section id | u64 payload length | u32 CRC32(payload) | payload
 *
 * The Writer accumulates sections in memory; finish() returns the whole
 * file image so the caller can write it atomically (tmp + fsync +
 * rename, see common/atomic_file.hh). The Reader maps the image back,
 * verifying the magic, version, and every section CRC up front -- a
 * truncated or bit-flipped checkpoint surfaces as a recoverable
 * SimError, never as garbage state or a crash.
 *
 * Scalars are stored in the host's native little-endian layout:
 * checkpoints are same-machine restart artifacts (like core dumps), not
 * portable interchange files.
 *
 * Both archives share the verbs of a component's one checkpoint
 * description, `template <class Ar> void io(Ar &ar)`, so a single field
 * list writes and reads it (snapshot/component_state.cc). Each scalar
 * verb names its wire width: the Writer casts the field to it and the
 * Reader casts it back, so an int travels as a u32 and a bool or enum
 * as a u8. `Ar::kLoading` guards load-only work (range checks, index
 * rebuilds).
 */

#ifndef LADM_COMMON_SERIAL_HH
#define LADM_COMMON_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace ladm
{
namespace serial
{

/** CRC-32 (IEEE 802.3 polynomial, as in zip/png). */
uint32_t crc32(const void *data, size_t n);

/** Current checkpoint format version; bump on any layout change. */
constexpr uint32_t kFormatVersion = 2;

/**
 * Raw vectors are memcpy'd: an element with padding bytes would make
 * the checkpoint bytes nondeterministic.
 */
template <typename T>
constexpr bool kRawElement =
    std::is_arithmetic_v<T> || std::has_unique_object_representations_v<T>;

class Writer
{
  public:
    static constexpr bool kLoading = false;

    /** Open a new section; sections may not nest. */
    void beginSection(uint32_t id);
    /** Seal the open section (patches length + CRC into the image). */
    void endSection();
    /** Write @p body's fields as section @p id. */
    template <typename F>
    void
    section(uint32_t id, F &&body)
    {
        beginSection(id);
        body();
        endSection();
    }

    template <typename T> void u8(const T &v) { put<uint8_t>(v); }
    template <typename T> void u32(const T &v) { put<uint32_t>(v); }
    template <typename T> void u64(const T &v) { put<uint64_t>(v); }
    void i64(int64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }
    /** Length-prefixed vector of padding-free elements. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(kRawElement<T>, "vector element has padding");
        u64(v.size());
        raw(v.data(), v.size() * sizeof(T));
    }
    /** vec() of a vector the reader has sized; @p what names it. */
    template <typename T>
    void
    vec(const std::vector<T> &v, const char *)
    {
        vec(v);
    }
    /** Element count of a container the reader resizes to match. */
    template <typename C> void size(const C &c) { u64(c.size()); }
    /** A count the reading simulator already has and checks. */
    void count(uint64_t n, const char *) { u64(n); }
    /**
     * A keyed map in iteration order: its size, then per entry the key
     * and @p value(mapped). The reader's slot lookup is ignored here.
     */
    template <typename M, typename F, typename... Slot>
    void
    map(M &m, F &&value, Slot &&...)
    {
        u64(m.size());
        for (auto &[k, v] : m) {
            key(k);
            value(v);
        }
    }
    /**
     * A component's state. io() is non-const because it also loads, but
     * writing only reads the fields: the one const_cast saving needs.
     */
    template <typename T> void io(const T &x) { const_cast<T &>(x).io(*this); }

    /**
     * Seal the image: prepend the header and return the complete file
     * bytes. The Writer is spent afterwards.
     */
    std::string finish(uint64_t fingerprint);

  private:
    template <typename W, typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
        const W w = static_cast<W>(v);
        raw(&w, sizeof w);
    }
    void key(const std::string &k) { str(k); }
    template <typename K> void key(const K &k) { u64(k); }
    void raw(const void *p, size_t n);

    std::string buf_;          ///< concatenated sealed sections
    std::string section_;      ///< payload of the open section
    uint32_t sectionId_ = 0;
    bool open_ = false;
    uint32_t count_ = 0;
};

class Reader
{
  public:
    static constexpr bool kLoading = true;

    /**
     * Parse and validate a checkpoint image (magic, version, all
     * section CRCs). Throws SimError(Config) on any corruption.
     */
    explicit Reader(std::string image);

    /** Convenience: read the file and construct. Throws SimError. */
    static Reader fromFile(const std::string &path);

    uint64_t fingerprint() const { return fingerprint_; }
    bool hasSection(uint32_t id) const
    {
        return sections_.count(id) != 0;
    }

    /** Position the cursor at a section's payload; throws if absent. */
    void openSection(uint32_t id);
    /** Read @p body's fields from section @p id. */
    template <typename F>
    void
    section(uint32_t id, F &&body)
    {
        openSection(id);
        body();
    }

    // Value getters, for code that validates fields as it reads them.
    uint8_t u8() { return get<uint8_t>(); }
    uint32_t u32() { return get<uint32_t>(); }
    uint64_t u64() { return get<uint64_t>(); }
    int64_t i64() { return get<int64_t>(); }
    double f64() { return get<double>(); }
    std::string str();

    // The Writer's verbs: each reads its wire width into @p v.
    template <typename T> void u8(T &v) { v = static_cast<T>(u8()); }
    template <typename T> void u32(T &v) { v = static_cast<T>(u32()); }
    template <typename T> void u64(T &v) { v = static_cast<T>(u64()); }
    void f64(double &v) { v = f64(); }
    void str(std::string &s) { s = str(); }
    template <typename T>
    void
    vec(std::vector<T> &v)
    {
        static_assert(kRawElement<T>, "vector element has padding");
        const uint64_t n = u64();
        checkCount(n, sizeof(T));
        v.resize(static_cast<size_t>(n));
        raw(v.data(), v.size() * sizeof(T));
    }
    /** vec() into @p v as sized by the simulator: lengths must match. */
    template <typename T>
    void
    vec(std::vector<T> &v, const char *what)
    {
        static_assert(kRawElement<T>, "vector element has padding");
        count(v.size(), what);
        raw(v.data(), v.size() * sizeof(T));
    }
    template <typename C>
    void
    size(C &c)
    {
        const uint64_t n = u64();
        checkCount(n, 1); // every element takes at least one byte
        c.resize(static_cast<size_t>(n));
    }
    void count(uint64_t n, const char *what) { expect(u64(), n, what); }
    /**
     * Entries are merged into @p m; @p slot(key) finds or creates the
     * mapped value (default: operator[]).
     */
    template <typename M, typename F>
    void
    map(M &m, F &&value)
    {
        map(m, value, [&m](const auto &k) -> auto & { return m[k]; });
    }
    template <typename M, typename F, typename Slot>
    void
    map(M &m, F &&value, Slot &&slot)
    {
        const uint64_t n = u64();
        checkCount(n, 1);
        if constexpr (requires { m.reserve(n); })
            m.reserve(m.size() + static_cast<size_t>(n));
        for (uint64_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            key(k);
            value(slot(k));
        }
    }
    template <typename T> void io(T &x) { x.io(*this); }

    /**
     * Structural mismatch AFTER the CRC and fingerprint checks passed:
     * throws SimError(Config) "checkpoint state mismatch".
     */
    [[noreturn]] static void mismatch(const std::string &what);
    /** mismatch() unless the checkpoint's @p got equals @p want. */
    static void expect(uint64_t got, uint64_t want, const char *what);

  private:
    struct Span
    {
        size_t off;
        size_t len;
    };

    template <typename T>
    T
    get()
    {
        T v;
        raw(&v, sizeof v);
        return v;
    }
    void key(std::string &k) { str(k); }
    template <typename K> void key(K &k) { u64(k); }
    void raw(void *p, size_t n);
    void checkCount(uint64_t n, size_t elem) const;
    [[noreturn]] void corrupt(const std::string &why) const;

    std::string image_;
    uint64_t fingerprint_ = 0;
    std::map<uint32_t, Span> sections_;
    size_t cur_ = 0; ///< cursor into image_
    size_t end_ = 0; ///< exclusive end of the open section
};

} // namespace serial
} // namespace ladm

#endif // LADM_COMMON_SERIAL_HH
