#include "base/output_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace dnasim
{

namespace fs = std::filesystem;

namespace
{

void
setError(std::string *error, std::string msg)
{
    if (error != nullptr)
        *error = std::move(msg);
}

/** Create the missing parent directories of @p path. */
bool
makeParents(const std::string &path, std::string *error)
{
    const fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        return true;
    std::error_code ec;
    fs::create_directories(parent, ec);
    if (!ec)
        return true;
    setError(error, "cannot create parent directory '" + parent.string() +
                        "' for '" + path + "': " + ec.message());
    return false;
}

} // anonymous namespace

OutputFile::~OutputFile()
{
    abort();
}

bool
OutputFile::open(const std::string &path, std::string *error)
{
    abort();
    if (path.empty()) {
        setError(error, "empty output path");
        return false;
    }
    if (!makeParents(path, error))
        return false;

    // symlink_status, so a symlink is written through, not replaced.
    std::error_code ec;
    const fs::file_type type = fs::symlink_status(path, ec).type();
    if (type == fs::file_type::directory) {
        setError(error, "cannot write '" + path + "': is a directory");
        return false;
    }
    if (ec && type != fs::file_type::not_found) {
        setError(error, "cannot write '" + path + "': " + ec.message());
        return false;
    }
    const bool by_rename = type == fs::file_type::not_found ||
                           type == fs::file_type::regular;
    path_ = path;
    tmp_ = by_rename ? path + ".tmp" : std::string();
    const std::string &target = by_rename ? tmp_ : path_;
    out_.open(target, std::ios::binary | std::ios::trunc);
    if (!out_) {
        setError(error, "cannot open '" + target +
                            "' for writing: " + std::strerror(errno));
        return false;
    }
    return true;
}

bool
OutputFile::commit(std::string *error)
{
    if (!out_.is_open()) {
        setError(error, "commit on a closed OutputFile");
        return false;
    }
    // close() flushes; failbit or badbit from any earlier write
    // survives it.
    out_.close();
    const std::string &target = tmp_.empty() ? path_ : tmp_;
    if (out_.fail()) {
        setError(error, "write to '" + target +
                            "' failed: " + std::strerror(errno));
        if (!tmp_.empty())
            std::remove(tmp_.c_str());
        return false;
    }
    if (!tmp_.empty() && std::rename(tmp_.c_str(), path_.c_str()) != 0) {
        setError(error, "cannot rename '" + tmp_ + "' to '" + path_ +
                            "': " + std::strerror(errno));
        std::remove(tmp_.c_str());
        return false;
    }
    return true;
}

void
OutputFile::abort()
{
    if (!out_.is_open())
        return;
    out_.close();
    if (!tmp_.empty())
        std::remove(tmp_.c_str());
}

bool
OutputFile::write(const std::string &path, std::string_view content,
                  std::string *error)
{
    OutputFile out;
    if (!out.open(path, error))
        return false;
    out.stream().write(content.data(),
                       static_cast<std::streamsize>(content.size()));
    return out.commit(error);
}

} // namespace dnasim
