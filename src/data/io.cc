#include "data/io.hh"

#include <fstream>

#include "base/logging.hh"
#include "base/output_file.hh"

namespace dnasim
{

namespace
{

const char *kSeparator = "*****************************";

/** Builds a Dataset, refusing any strand outside ACGT. */
class DatasetVisitor
{
  public:
    bool reference(std::string &line, size_t line_no)
    {
        if (!isValidStrand(line)) {
            DNASIM_FATAL("line ", line_no,
                         ": reference is not a DNA strand: '", line, "'");
        }
        cluster_.reference = std::move(line);
        return true;
    }

    bool copy(std::string &line, size_t line_no)
    {
        if (!isValidStrand(line)) {
            DNASIM_FATAL("line ", line_no,
                         ": copy is not a DNA strand: '", line, "'");
        }
        cluster_.copies.push_back(std::move(line));
        return true;
    }

    void endCluster()
    {
        dataset.add(std::move(cluster_));
        cluster_ = Cluster{};
    }

    Dataset dataset;

  private:
    Cluster cluster_;
};

} // anonymous namespace

bool
isEvyatSeparator(std::string_view line)
{
    return !line.empty() &&
           line.find_first_not_of('*') == std::string_view::npos;
}

void
writeEvyat(const Dataset &dataset, std::ostream &os)
{
    for (const auto &cluster : dataset) {
        os << cluster.reference << "\n" << kSeparator << "\n";
        for (const auto &copy : cluster.copies)
            os << copy << "\n";
        os << "\n\n";
    }
}

void
writeEvyatFile(const Dataset &dataset, const std::string &path)
{
    OutputFile out;
    std::string error;
    if (!out.open(path, &error))
        DNASIM_FATAL("cannot write dataset: ", error);
    writeEvyat(dataset, out.stream());
    if (!out.commit(&error))
        DNASIM_FATAL("cannot write dataset: ", error);
}

Dataset
readEvyat(std::istream &is)
{
    DatasetVisitor visitor;
    readEvyatClusters(is, visitor);
    return std::move(visitor.dataset);
}

Dataset
readEvyatFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        DNASIM_FATAL("cannot open '", path, "' for reading");
    return readEvyat(in);
}

} // namespace dnasim
