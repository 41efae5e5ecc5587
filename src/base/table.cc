#include "base/table.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "base/logging.hh"

namespace dnasim
{

TextTable::TextTable(std::string title)
    : title_(std::move(title))
{}

void
TextTable::setHeader(std::vector<std::string> header)
{
    DNASIM_ASSERT(rows_.empty(), "setHeader() after addRow()");
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    DNASIM_ASSERT(header_.empty() || row.size() == header_.size(),
                  "row width ", row.size(), " != header width ",
                  header_.size());
    rows_.push_back(std::move(row));
}

std::string
TextTable::str() const
{
    std::vector<size_t> widths(header_.size(), 0);
    auto grow = [&](const std::vector<std::string> &row) {
        if (row.size() > widths.size())
            widths.resize(row.size(), 0);
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    grow(header_);
    for (const auto &row : rows_)
        grow(row);

    std::ostringstream os;
    if (!title_.empty())
        os << "== " << title_ << " ==\n";

    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]))
               << row[i];
            os << (i + 1 == row.size() ? "" : "  ");
        }
        os << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        size_t total = 0;
        for (size_t w : widths)
            total += w + 2;
        os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

void
TextTable::print(std::ostream &os) const
{
    os << str() << "\n";
}

std::string
fmtDouble(double v, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << v;
    return os.str();
}

std::string
fmtPercent(double ratio, int decimals)
{
    return fmtDouble(ratio * 100.0, decimals);
}

} // namespace dnasim
