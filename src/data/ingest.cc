#include "data/ingest.hh"

#include <fstream>
#include <string_view>

#include "base/strand_pool.hh"
#include "data/io.hh"

namespace dnasim
{

namespace
{

/**
 * Appends reads to the pool, skipping and counting non-ACGT ones,
 * until max_reads; for evyat input it is the readEvyatClusters()
 * visitor that records each read's cluster.
 */
class IngestSink
{
  public:
    IngestSink(PackedStrandPoolBuilder &builder, size_t max_reads,
               IngestResult &result)
        : builder_(builder), max_reads_(max_reads), result_(result)
    {
    }

    /** False once max_reads is reached — the caller stops parsing. */
    bool wantMore() const
    {
        return max_reads_ == 0 || result_.reads < max_reads_;
    }

    /** Append @p read; false when it was skipped. */
    bool add(std::string_view read)
    {
        if (!builder_.append(read)) {
            ++result_.skipped;
            return false;
        }
        ++result_.reads;
        result_.total_bases += read.size();
        return true;
    }

    bool reference(std::string &, size_t)
    {
        if (!wantMore())
            return false;
        origin_ = static_cast<uint32_t>(result_.clusters++);
        return true;
    }

    bool copy(std::string &line, size_t)
    {
        if (!wantMore())
            return false;
        if (add(line))
            result_.origins.push_back(origin_);
        return true;
    }

    void endCluster() {}

  private:
    PackedStrandPoolBuilder &builder_;
    size_t max_reads_;
    IngestResult &result_;
    uint32_t origin_ = 0;
};

void
ingestLines(std::istream &in, IngestSink &sink)
{
    std::string line;
    while (sink.wantMore() && std::getline(in, line)) {
        stripCr(line);
        if (!line.empty())
            sink.add(line);
    }
}

void
ingestFasta(std::istream &in, IngestSink &sink)
{
    std::string line;
    std::string seq;
    bool have_record = false;
    auto flush = [&] {
        if (have_record)
            sink.add(seq);
        seq.clear();
        have_record = false;
    };
    while (sink.wantMore() && std::getline(in, line)) {
        stripCr(line);
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
}

} // anonymous namespace

IngestFormat
sniffIngestFormat(const std::string &path)
{
    std::ifstream in(path);
    std::string first;
    std::string line;
    while (std::getline(in, line)) {
        stripCr(line);
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
        return isEvyatSeparator(line) ? IngestFormat::Evyat
                                      : IngestFormat::Lines;
    }
    return IngestFormat::Lines;
}

const char *
ingestFormatName(IngestFormat format)
{
    switch (format) {
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
        if (error != nullptr)
            *error = input_path + ": cannot open for reading";
        return false;
    }

    // The builder's destructor discards the pool on every early
    // exit, a FatalError from the evyat parser included.
    PackedStrandPoolBuilder builder;
    if (!builder.open(pool_path, error))
        return false;
    IngestSink sink(builder, options.max_reads, result);
    switch (options.format) {
    case IngestFormat::Lines:
        ingestLines(in, sink);
        break;
    case IngestFormat::Fasta:
        ingestFasta(in, sink);
        break;
    case IngestFormat::Evyat:
        readEvyatClusters(in, sink);
        break;
    }
    if (in.bad()) {
        if (error != nullptr)
            *error = input_path + ": read error";
        return false;
    }
    return builder.finish(error);
}

} // namespace dnasim
