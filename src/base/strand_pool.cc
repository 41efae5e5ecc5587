#include "base/strand_pool.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
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

bool
makeParentDirs(const std::string &path, std::string *error)
{
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (parent.empty())
        return true;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
        setPathError(error, parent.string(),
                     "cannot create directory: " + ec.message());
        return false;
    }
    return true;
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

std::string
stripCr(std::string line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return line;
}

bool
isSeparatorLine(const std::string &line)
{
    if (line.empty())
        return false;
    for (char c : line)
        if (c != '*')
            return false;
    return true;
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
    if (!makeParentDirs(path, error))
        return false;
    path_ = path;
    index_out_.open(path_ + ".tmp.index",
                    std::ios::binary | std::ios::trunc);
    arena_out_.open(path_ + ".tmp.arena",
                    std::ios::binary | std::ios::trunc);
    if (!index_out_ || !arena_out_) {
        setPathError(error, path_, "cannot create pool side files");
        index_out_.close();
        arena_out_.close();
        removeQuiet(path_ + ".tmp.index");
        removeQuiet(path_ + ".tmp.arena");
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
    size_t len = 0;
    if (!packWordsInto(strand, strand.size(), scratch_, &len))
        return false;

    char entry[PackedStrandPool::kIndexEntryBytes];
    storeU64(entry, arena_words_);
    storeU64(entry + 8, len);
    index_out_.write(entry, sizeof(entry));
    const size_t num_words = PackedStrand::numWords(len);
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
    const std::string tmp_path = path_ + ".tmp";
    bool ok = !index_out_.fail() && !arena_out_.fail();
    if (!ok)
        setPathError(error, path_, "I/O error on pool side files");

    if (ok) {
        std::ofstream out(tmp_path,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            setPathError(error, tmp_path, "cannot create pool file");
            ok = false;
        } else {
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
            out.write(header, sizeof(header));
            ok = appendFile(out, index_path, error) &&
                 appendFile(out, arena_path, error);
            out.close();
            if (ok && out.fail()) {
                setPathError(error, tmp_path,
                             "I/O error while writing pool file");
                ok = false;
            }
        }
    }

    removeQuiet(index_path);
    removeQuiet(arena_path);
    if (ok && std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
        setPathError(error, path_,
                     std::string("rename: ") + std::strerror(errno));
        ok = false;
    }
    if (!ok)
        removeQuiet(tmp_path);
    return ok;
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
        removeQuiet(path_ + ".tmp");
    }
}

// ---------------------------------------------------------------------
// Streaming ingest

namespace
{

/** Shared sink: appends reads, tracks skips, enforces max_reads. */
class IngestSink
{
  public:
    IngestSink(PackedStrandPoolBuilder &builder,
               const IngestOptions &options, IngestResult &result,
               std::ofstream *origins_out)
        : builder_(builder), options_(options), result_(result),
          origins_out_(origins_out)
    {
    }

    /** False once max_reads is reached — the caller stops parsing. */
    bool wantMore() const
    {
        return options_.max_reads == 0 ||
               result_.reads < options_.max_reads;
    }

    void add(std::string_view read, uint32_t origin)
    {
        if (!builder_.append(read)) {
            ++result_.skipped;
            return;
        }
        ++result_.reads;
        result_.total_bases += read.size();
        if (origins_out_ != nullptr) {
            origins_out_->write(
                reinterpret_cast<const char *>(&origin),
                sizeof(origin));
        }
    }

  private:
    PackedStrandPoolBuilder &builder_;
    const IngestOptions &options_;
    IngestResult &result_;
    std::ofstream *origins_out_;
};

bool
ingestLines(std::istream &in, IngestSink &sink)
{
    std::string line;
    while (sink.wantMore() && std::getline(in, line)) {
        line = stripCr(std::move(line));
        if (line.empty())
            continue;
        sink.add(line, 0);
    }
    return !in.bad();
}

bool
ingestFasta(std::istream &in, IngestSink &sink, IngestResult &result)
{
    std::string line;
    std::string seq;
    bool have_record = false;
    auto flush = [&] {
        if (have_record)
            sink.add(seq, 0);
        seq.clear();
        have_record = false;
    };
    while (sink.wantMore() && std::getline(in, line)) {
        line = stripCr(std::move(line));
        if (!line.empty() && line[0] == '>') {
            flush();
            have_record = true;
            continue;
        }
        if (line.empty())
            continue;
        // Tolerate sequence data before the first header.
        have_record = true;
        seq += line;
    }
    if (sink.wantMore())
        flush();
    (void)result;
    return !in.bad();
}

bool
ingestEvyat(std::istream &in, IngestSink &sink, IngestResult &result,
            std::string *error)
{
    std::string line;
    size_t line_no = 0;
    while (sink.wantMore() && std::getline(in, line)) {
        ++line_no;
        line = stripCr(std::move(line));
        if (line.empty())
            continue;

        // Reference line (skipped — pools hold reads), then the
        // separator, then copies until a blank line or EOF.
        if (!std::getline(in, line)) {
            setPathError(error, "line " + std::to_string(line_no),
                         "unexpected EOF, separator expected");
            return false;
        }
        ++line_no;
        line = stripCr(std::move(line));
        if (!isSeparatorLine(line)) {
            setPathError(error, "line " + std::to_string(line_no),
                         "expected evyat separator, got '" + line +
                             "'");
            return false;
        }
        const auto origin = static_cast<uint32_t>(result.clusters);
        ++result.clusters;
        while (std::getline(in, line)) {
            ++line_no;
            line = stripCr(std::move(line));
            if (line.empty())
                break;
            if (!sink.wantMore())
                return true;
            sink.add(line, origin);
        }
    }
    return !in.bad();
}

IngestFormat
sniffFormat(const std::string &path)
{
    std::ifstream in(path);
    std::string first;
    std::string line;
    while (std::getline(in, line)) {
        line = stripCr(std::move(line));
        if (line.empty())
            continue;
        if (first.empty()) {
            first = line;
            if (first[0] == '>')
                return IngestFormat::Fasta;
            continue;
        }
        // The line right after the first strand decides: an all-'*'
        // separator marks the clustered evyat layout.
        return isSeparatorLine(line) ? IngestFormat::Evyat
                                     : IngestFormat::Lines;
    }
    return IngestFormat::Lines;
}

} // anonymous namespace

IngestFormat
sniffIngestFormat(const std::string &path)
{
    return sniffFormat(path);
}

const char *
ingestFormatName(IngestFormat format)
{
    switch (format) {
    case IngestFormat::Auto:
        return "auto";
    case IngestFormat::Lines:
        return "lines";
    case IngestFormat::Fasta:
        return "fasta";
    case IngestFormat::Evyat:
        return "evyat";
    }
    return "?";
}

bool
ingestToPool(const std::string &input_path,
             const std::string &pool_path,
             const IngestOptions &options, IngestResult &result,
             std::string *error)
{
    result = IngestResult{};

    std::ifstream in(input_path);
    if (!in) {
        setPathError(error, input_path, "cannot open for reading");
        return false;
    }

    IngestFormat format = options.format;
    if (format == IngestFormat::Auto)
        format = sniffFormat(input_path);

    PackedStrandPoolBuilder builder;
    if (!builder.open(pool_path, error))
        return false;

    std::ofstream origins_out;
    std::string origins_tmp;
    if (!options.origins_path.empty()) {
        if (format != IngestFormat::Evyat) {
            setPathError(error, options.origins_path,
                         "--origins requires evyat input");
            builder.abort();
            return false;
        }
        if (!makeParentDirs(options.origins_path, error)) {
            builder.abort();
            return false;
        }
        origins_tmp = options.origins_path + ".tmp";
        origins_out.open(origins_tmp,
                         std::ios::binary | std::ios::trunc);
        if (!origins_out) {
            setPathError(error, origins_tmp, "cannot create");
            builder.abort();
            return false;
        }
    }

    IngestSink sink(builder, options, result,
                    origins_out.is_open() ? &origins_out : nullptr);
    bool ok = false;
    switch (format) {
    case IngestFormat::Lines:
        ok = ingestLines(in, sink);
        if (!ok)
            setPathError(error, input_path, "read error");
        break;
    case IngestFormat::Fasta:
        ok = ingestFasta(in, sink, result);
        if (!ok)
            setPathError(error, input_path, "read error");
        break;
    case IngestFormat::Evyat:
        ok = ingestEvyat(in, sink, result, error);
        break;
    case IngestFormat::Auto:
        DNASIM_ASSERT(false, "unreachable: format sniffed above");
        break;
    }

    if (!ok) {
        builder.abort();
        if (origins_out.is_open()) {
            origins_out.close();
            removeQuiet(origins_tmp);
        }
        return false;
    }

    if (origins_out.is_open()) {
        origins_out.close();
        if (origins_out.fail()) {
            setPathError(error, origins_tmp, "I/O error");
            builder.abort();
            removeQuiet(origins_tmp);
            return false;
        }
    }
    if (!builder.finish(error)) {
        if (!origins_tmp.empty())
            removeQuiet(origins_tmp);
        return false;
    }
    if (!origins_tmp.empty() &&
        std::rename(origins_tmp.c_str(),
                    options.origins_path.c_str()) != 0) {
        setPathError(error, options.origins_path,
                     std::string("rename: ") + std::strerror(errno));
        removeQuiet(origins_tmp);
        return false;
    }
    return true;
}

} // namespace dnasim
