#include "base/strand_pool.hh"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "base/logging.hh"

namespace dnasim
{

// The header is serialized field-by-field, but the index and arena
// are written and mapped as raw host words; the format is defined
// little-endian, so builds are pinned to little-endian hosts (every
// supported target — see the SIMD tiers — already is).
static_assert(std::endian::native == std::endian::little,
              "dnapool v1 I/O assumes a little-endian host");

namespace
{

constexpr size_t kCopyBufBytes = 1 << 20;

void
storeU64(char *dst, uint64_t v)
{
    std::memcpy(dst, &v, sizeof(v));
}

uint64_t
loadU64(const char *src)
{
    uint64_t v = 0;
    std::memcpy(&v, src, sizeof(v));
    return v;
}

void
setPathError(std::string *error, const std::string &path,
             const std::string &what)
{
    if (error != nullptr)
        *error = path + ": " + what;
}

/** Append the whole contents of @p src to @p out in fixed chunks. */
bool
appendFile(std::ofstream &out, const std::string &src,
           std::string *error)
{
    std::ifstream in(src, std::ios::binary);
    if (!in) {
        setPathError(error, src, "cannot reopen side file");
        return false;
    }
    std::vector<char> buf(kCopyBufBytes);
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const std::streamsize got = in.gcount();
        if (got > 0)
            out.write(buf.data(), got);
    }
    if (in.bad() || !out) {
        setPathError(error, src, "I/O error while splicing");
        return false;
    }
    return true;
}

/**
 * Words a strand of @p len bases occupies, without the overflow of
 * numWords() near 2^64 (a hostile length must not wrap to 0).
 */
uint64_t
wordsFor(uint64_t len)
{
    return len / 32 + (len % 32 != 0 ? 1 : 0);
}

void
removeQuiet(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// PackedStrandPool

bool
PackedStrandPool::open(const std::string &path, std::string *error)
{
    close();
    if (!map_.open(path, error))
        return false;

    const auto bytes = map_.bytes();
    const char *base = reinterpret_cast<const char *>(bytes.data());
    if (bytes.size() < kHeaderBytes) {
        setPathError(error, path,
                     "not a dnapool file (shorter than the header)");
        close();
        return false;
    }
    if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
        setPathError(error, path, "not a dnapool file (bad magic)");
        close();
        return false;
    }
    const uint64_t version = loadU64(base + 8);
    if (version != kVersion) {
        setPathError(error, path,
                     "unsupported dnapool version " +
                         std::to_string(version));
        close();
        return false;
    }
    const uint64_t count = loadU64(base + 16);
    const uint64_t arena_words = loadU64(base + 24);
    const uint64_t index_offset = loadU64(base + 32);
    const uint64_t arena_offset = loadU64(base + 40);
    const uint64_t total_bases = loadU64(base + 48);

    // O(1) bounds validation: the declared index and arena must fit
    // inside the mapping, so a truncated or corrupt file fails here
    // instead of faulting on first access. Each product below is
    // read only after its factor is bounded, so a hostile count or
    // arena_words cannot wrap past the checks.
    const uint64_t index_bytes = count * kIndexEntryBytes;
    const uint64_t arena_bytes = arena_words * sizeof(uint64_t);
    if (count > bytes.size() / kIndexEntryBytes ||
        index_offset != kHeaderBytes ||
        arena_offset != kHeaderBytes + index_bytes ||
        arena_words > bytes.size() / sizeof(uint64_t) ||
        arena_offset > bytes.size() - arena_bytes) {
        setPathError(error, path,
                     "truncated or corrupt dnapool file");
        close();
        return false;
    }

    // O(n) index validation: every strand's words must lie inside
    // the arena, so words() can never read outside the mapping.
    const auto *index =
        reinterpret_cast<const uint64_t *>(base + index_offset);
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t word_offset = index[2 * i];
        const uint64_t len = index[2 * i + 1];
        if (word_offset > arena_words ||
            wordsFor(len) > arena_words - word_offset) {
            setPathError(error, path,
                         "truncated or corrupt dnapool file (index "
                         "entry " + std::to_string(i) +
                             " overruns the arena)");
            close();
            return false;
        }
    }

    index_ = index;
    arena_ = reinterpret_cast<const uint64_t *>(base + arena_offset);
    count_ = count;
    arena_words_ = arena_words;
    total_bases_ = total_bases;
    return true;
}

void
PackedStrandPool::close()
{
    map_.close();
    index_ = nullptr;
    arena_ = nullptr;
    count_ = 0;
    arena_words_ = 0;
    total_bases_ = 0;
}

size_t
PackedStrandPool::length(size_t i) const
{
    DNASIM_ASSERT(i < count_, "pool strand ", i, " out of range ",
                  count_);
    return static_cast<size_t>(index_[2 * i + 1]);
}

std::span<const uint64_t>
PackedStrandPool::words(size_t i) const
{
    DNASIM_ASSERT(i < count_, "pool strand ", i, " out of range ",
                  count_);
    const uint64_t word_offset = index_[2 * i];
    const uint64_t num_words = wordsFor(index_[2 * i + 1]);
    DNASIM_ASSERT(word_offset <= arena_words_ &&
                      num_words <= arena_words_ - word_offset,
                  "pool strand ", i, " overruns the arena");
    return {arena_ + word_offset, static_cast<size_t>(num_words)};
}

void
PackedStrandPool::unpackInto(size_t i, Strand &out) const
{
    unpackWords(words(i), length(i), out);
}

Strand
PackedStrandPool::strand(size_t i) const
{
    Strand out;
    unpackInto(i, out);
    return out;
}

// ---------------------------------------------------------------------
// PackedStrandPoolBuilder

PackedStrandPoolBuilder::~PackedStrandPoolBuilder()
{
    if (open_)
        abort();
}

bool
PackedStrandPoolBuilder::open(const std::string &path,
                              std::string *error)
{
    DNASIM_ASSERT(!open_, "pool builder already open");
    if (!out_.open(path, error))
        return false;
    path_ = path;
    index_out_.open(path_ + ".tmp.index",
                    std::ios::binary | std::ios::trunc);
    arena_out_.open(path_ + ".tmp.arena",
                    std::ios::binary | std::ios::trunc);
    if (!index_out_ || !arena_out_) {
        setPathError(error, path_, "cannot create pool side files");
        abort();
        return false;
    }
    count_ = 0;
    arena_words_ = 0;
    total_bases_ = 0;
    open_ = true;
    return true;
}

bool
PackedStrandPoolBuilder::append(std::string_view strand)
{
    DNASIM_ASSERT(open_, "append on a closed pool builder");
    if (!packWordsInto(strand, scratch_))
        return false;
    const size_t len = strand.size();

    char entry[PackedStrandPool::kIndexEntryBytes];
    storeU64(entry, arena_words_);
    storeU64(entry + 8, len);
    index_out_.write(entry, sizeof(entry));
    const size_t num_words = numWords(len);
    if (num_words > 0) {
        arena_out_.write(
            reinterpret_cast<const char *>(scratch_.data()),
            static_cast<std::streamsize>(num_words *
                                         sizeof(uint64_t)));
    }
    ++count_;
    arena_words_ += num_words;
    total_bases_ += len;
    return true;
}

bool
PackedStrandPoolBuilder::finish(std::string *error)
{
    DNASIM_ASSERT(open_, "finish on a closed pool builder");
    index_out_.close();
    arena_out_.close();
    open_ = false;

    const std::string index_path = path_ + ".tmp.index";
    const std::string arena_path = path_ + ".tmp.arena";
    bool ok = !index_out_.fail() && !arena_out_.fail();
    if (!ok)
        setPathError(error, path_, "I/O error on pool side files");

    if (ok) {
        char header[PackedStrandPool::kHeaderBytes] = {};
        std::memcpy(header, PackedStrandPool::kMagic,
                    sizeof(PackedStrandPool::kMagic));
        storeU64(header + 8, PackedStrandPool::kVersion);
        storeU64(header + 16, count_);
        storeU64(header + 24, arena_words_);
        storeU64(header + 32, PackedStrandPool::kHeaderBytes);
        storeU64(header + 40,
                 PackedStrandPool::kHeaderBytes +
                     count_ * PackedStrandPool::kIndexEntryBytes);
        storeU64(header + 48, total_bases_);
        out_.stream().write(header, sizeof(header));
        ok = appendFile(out_.stream(), index_path, error) &&
             appendFile(out_.stream(), arena_path, error);
    }

    removeQuiet(index_path);
    removeQuiet(arena_path);
    if (!ok) {
        out_.abort();
        return false;
    }
    return out_.commit(error);
}

void
PackedStrandPoolBuilder::abort()
{
    index_out_.close();
    arena_out_.close();
    open_ = false;
    if (!path_.empty()) {
        removeQuiet(path_ + ".tmp.index");
        removeQuiet(path_ + ".tmp.arena");
    }
    out_.abort();
}

// ---------------------------------------------------------------------
// .u32 sidecars

bool
writeU32File(const std::string &path,
             const std::vector<uint32_t> &values, std::string *error)
{
    return OutputFile::write(
        path,
        std::string_view(reinterpret_cast<const char *>(values.data()),
                         values.size() * sizeof(uint32_t)),
        error);
}

bool
readU32File(const std::string &path, size_t max_entries,
            std::vector<uint32_t> &out, std::string *error)
{
    auto fail = [error](std::string msg) {
        if (error != nullptr)
            *error = std::move(msg);
        return false;
    };
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec)
        return fail("cannot stat '" + path + "': " + ec.message());
    if (size % sizeof(uint32_t) != 0) {
        return fail("'" + path + "' is not a u32 array (size " +
                    std::to_string(size) + ")");
    }
    const uint64_t entries = size / sizeof(uint32_t);
    if (entries > max_entries) {
        return fail("'" + path + "' holds " + std::to_string(entries) +
                    " entries, more than the " +
                    std::to_string(max_entries) +
                    " reads of its pool");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail("cannot open '" + path + "'");
    out.resize(static_cast<size_t>(entries));
    if (!out.empty()) {
        in.read(reinterpret_cast<char *>(out.data()),
                static_cast<std::streamsize>(size));
        if (in.gcount() != static_cast<std::streamsize>(size))
            return fail("short read on '" + path + "'");
    }
    return true;
}

} // namespace dnasim
