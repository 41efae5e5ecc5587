#include "pipeline/checkpoint.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/output_file.hh"
#include "obs/json.hh"
#include "obs/provenance.hh"

namespace dnasim
{

namespace
{

void
setError(std::string *error, std::string msg)
{
    if (error != nullptr)
        *error = std::move(msg);
}

} // anonymous namespace

bool
CheckpointDir::hasManifest() const
{
    std::error_code ec;
    return std::filesystem::exists(manifestPath(), ec);
}

bool
CheckpointDir::readManifest(CheckpointManifest &out,
                            std::string *error) const
{
    const std::string path = manifestPath();
    std::ifstream in(path);
    if (!in) {
        setError(error, "cannot open '" + path + "'");
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    obs::JsonValue doc;
    if (!obs::parseJson(buf.str(), doc, error))
        return false;
    const obs::JsonValue *schema = doc.find("schema");
    if (schema == nullptr ||
        schema->asString() != "dnasim.checkpoint.v1") {
        setError(error, "'" + path +
                            "' is not a dnasim.checkpoint.v1 "
                            "manifest");
        return false;
    }
    out = CheckpointManifest{};
    if (const auto *v = doc.find("stage"))
        out.stage = v->asString();
    if (const auto *v = doc.find("seed"))
        out.seed = v->asUint();
    if (const auto *v = doc.find("num_refs"))
        out.num_refs = v->asUint();
    if (const auto *v = doc.find("num_reads"))
        out.num_reads = v->asUint();
    if (const auto *v = doc.find("num_clusters"))
        out.num_clusters = v->asUint();
    if (const auto *cfg = doc.find("config"); cfg && cfg->isObject())
        for (const auto &[key, val] : cfg->object())
            out.config.emplace_back(key, val.asString());
    return true;
}

bool
CheckpointDir::writeManifest(const CheckpointManifest &manifest,
                             std::string *error) const
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.value("schema", "dnasim.checkpoint.v1");
    w.value("stage", manifest.stage);
    w.value("seed", manifest.seed);
    w.value("num_refs", manifest.num_refs);
    w.value("num_reads", manifest.num_reads);
    w.value("num_clusters", manifest.num_clusters);
    w.beginObject("config");
    for (const auto &[key, value] : manifest.config)
        w.value(key, value);
    w.endObject();
    obs::writeProvenance(w);
    w.endObject();
    os << "\n";
    return OutputFile::write(manifestPath(), os.str(), error);
}

} // namespace dnasim
