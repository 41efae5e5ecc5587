/**
 * @file
 * Plain-text table formatting shared by the bench harnesses.
 *
 * Every experiment binary prints the rows of the corresponding paper
 * table/figure through TextTable so that the output is uniform and
 * grep-able.
 */

#ifndef DNASIM_BASE_TABLE_HH
#define DNASIM_BASE_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace dnasim
{

/**
 * A simple column-aligned text table with an optional title.
 */
class TextTable
{
  public:
    explicit TextTable(std::string title = "");

    /** Set the header row. Must be called before addRow(). */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; its width must match the header's. */
    void addRow(std::vector<std::string> row);

    /** Number of data rows added so far. */
    size_t numRows() const { return rows_.size(); }

    /** Render as an aligned text table. */
    std::string str() const;

    /** Print str() to @p os followed by a blank line. */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p decimals fraction digits. */
std::string fmtDouble(double v, int decimals = 2);

/** Format a ratio in [0,1] as a percentage with @p decimals digits. */
std::string fmtPercent(double ratio, int decimals = 2);

} // namespace dnasim

#endif // DNASIM_BASE_TABLE_HH
