#include "core/profile_io.hh"

#include <cctype>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "base/logging.hh"
#include "base/output_file.hh"

namespace dnasim
{

namespace
{

constexpr const char *kMagic = "dnasim-profile";
constexpr int kVersion = 1;

void
writeVector(std::ostream &os, const std::vector<double> &xs)
{
    os << xs.size();
    for (double x : xs)
        os << ' ' << x;
}

void
writeSpatial(std::ostream &os, const char *key,
             const PositionProfile &spatial)
{
    os << key << ' ';
    writeVector(os, spatial.multipliers());
    os << '\n';
}

/** Whitespace-separated tokens not yet read from @p line. */
size_t
tokensLeft(std::istringstream &line)
{
    const std::streamsize unread = line.rdbuf()->in_avail();
    if (unread <= 0)
        return 0;
    const std::string_view text = line.view();
    size_t tokens = 0;
    bool in_token = false;
    for (size_t i = text.size() - static_cast<size_t>(unread);
         i < text.size(); ++i) {
        const bool space =
            std::isspace(static_cast<unsigned char>(text[i])) != 0;
        if (!space && !in_token)
            ++tokens;
        in_token = !space;
    }
    return tokens;
}

std::vector<double>
readVector(std::istringstream &line, const char *what)
{
    size_t n = 0;
    if (!(line >> n))
        DNASIM_FATAL("profile: missing length for ", what);
    // The length is untrusted: it may not size an allocation beyond
    // what the line itself holds.
    const size_t present = tokensLeft(line);
    if (n > present) {
        DNASIM_FATAL("profile: ", what, " declares ", n,
                     " values but its line holds ", present);
    }
    std::vector<double> xs(n);
    for (size_t i = 0; i < n; ++i) {
        if (!(line >> xs[i]))
            DNASIM_FATAL("profile: truncated vector for ", what);
        if (!(xs[i] >= 0.0 && std::isfinite(xs[i])))
            DNASIM_FATAL("profile: bad ", what, " value ", xs[i]);
    }
    return xs;
}

/** Reject a probability outside [0, 1], NaN included. */
void
checkProbability(const char *key, double p)
{
    if (!(p >= 0.0 && p <= 1.0))
        DNASIM_FATAL("profile: ", key, " probability ", p,
                     " is outside [0, 1]");
}

/**
 * Check the fields of a complete profile against each other; each
 * field's own range was checked as it was read.
 */
void
checkConsistent(const ErrorProfile &p)
{
    if (p.totalRate() > 1.0)
        DNASIM_FATAL("profile: aggregate rates sum to ", p.totalRate(),
                     ", above 1");
    // A distribution sums to 1, or is all zero (nothing observed).
    auto isDistribution = [](const std::array<double, kNumBases> &w) {
        double sum = 0.0;
        for (double x : w)
            sum += x;
        return sum == 0.0 || std::fabs(sum - 1.0) <= 1e-9;
    };
    for (size_t b = 0; b < kNumBases; ++b) {
        if (!isDistribution(p.confusion[b]))
            DNASIM_FATAL("profile: confusion row ", kBaseChars[b],
                         " sums to neither 1 nor 0");
        if (p.confusion[b][b] != 0.0)
            DNASIM_FATAL("profile: confusion row ", kBaseChars[b],
                         " substitutes a base by itself");
    }
    if (!isDistribution(p.insert_base))
        DNASIM_FATAL("profile: insert_base sums to neither 1 nor 0");
    // The DNASimulator dictionary reads each base's conditional
    // rates plus long_del as one distribution over the next event,
    // summed in its constructor's order.
    for (size_t b = 0; b < kNumBases; ++b) {
        const double total = p.p_sub_given[b] + p.p_ins_given[b] +
                             p.p_del_given[b] + p.p_long_del;
        if (total > 1.0)
            DNASIM_FATAL("profile: conditional rates of base ",
                         kBaseChars[b], " plus long_del sum to ", total,
                         ", above 1");
    }
    if (!(p.homopolymer_mult > 0.0 && std::isfinite(p.homopolymer_mult)))
        DNASIM_FATAL("profile: homopolymer_mult ", p.homopolymer_mult,
                     " is not a finite positive multiplier");
    auto checkLength = [&p](const PositionProfile &spatial) {
        if (!spatial.isUniform() && spatial.length() != p.design_length)
            DNASIM_FATAL("profile: a spatial vector has ",
                         spatial.length(), " entries but design_length is ",
                         p.design_length);
    };
    checkLength(p.spatial);
    for (const SecondOrderSpec &so : p.second_order) {
        checkLength(so.spatial);
        const bool substitution = so.key.type == EditOpType::Substitute;
        if (substitution != (so.key.repl != '\0') ||
            so.key.repl == so.key.base)
            DNASIM_FATAL("profile: second_order ", so.key.str(),
                         " needs a replacement base exactly when it "
                         "is a substitution, and a different one");
    }
}

PositionProfile
profileFromMultipliers(const std::vector<double> &m)
{
    if (m.empty())
        return PositionProfile();
    // Rebuild through the histogram path, which renormalizes.
    Histogram h;
    for (size_t i = 0; i < m.size(); ++i) {
        // A mean-1 profile's multipliers never exceed its length;
        // the bound also keeps the count below in range.
        if (m[i] > static_cast<double>(ErrorProfile::kMaxDesignLength))
            DNASIM_FATAL("profile: spatial multiplier ", m[i],
                         " exceeds ", ErrorProfile::kMaxDesignLength);
        h.add(i, static_cast<uint64_t>(m[i] * 1e6));
    }
    return PositionProfile::fromHistogram(h, m.size());
}

const char *
opTypeTag(EditOpType t)
{
    switch (t) {
      case EditOpType::Substitute: return "sub";
      case EditOpType::Delete: return "del";
      case EditOpType::Insert: return "ins";
      case EditOpType::Equal: break;
    }
    DNASIM_PANIC("unserializable op type");
}

EditOpType
opTypeFromTag(const std::string &tag)
{
    if (tag == "sub")
        return EditOpType::Substitute;
    if (tag == "del")
        return EditOpType::Delete;
    if (tag == "ins")
        return EditOpType::Insert;
    DNASIM_FATAL("profile: unknown error type '", tag, "'");
}

} // anonymous namespace

void
writeProfile(const ErrorProfile &p, std::ostream &os)
{
    os << std::setprecision(12);
    os << kMagic << ' ' << kVersion << '\n';
    os << "design_length " << p.design_length << '\n';
    os << "aggregate " << p.p_sub << ' ' << p.p_ins << ' ' << p.p_del
       << '\n';
    os << "conditional";
    for (size_t b = 0; b < kNumBases; ++b) {
        os << ' ' << p.p_sub_given[b] << ' ' << p.p_ins_given[b]
           << ' ' << p.p_del_given[b];
    }
    os << '\n';
    for (size_t b = 0; b < kNumBases; ++b) {
        os << "confusion " << kBaseChars[b];
        for (size_t r = 0; r < kNumBases; ++r)
            os << ' ' << p.confusion[b][r];
        os << '\n';
    }
    os << "insert_base";
    for (size_t b = 0; b < kNumBases; ++b)
        os << ' ' << p.insert_base[b];
    os << '\n';
    os << "long_del " << p.p_long_del << ' ';
    writeVector(os, p.long_del_len_weights);
    os << '\n';
    os << "homopolymer_mult " << p.homopolymer_mult << '\n';
    writeSpatial(os, "spatial", p.spatial);
    for (const auto &so : p.second_order) {
        os << "second_order " << opTypeTag(so.key.type) << ' '
           << so.key.base << ' '
           << (so.key.repl == '\0' ? '-' : so.key.repl) << ' '
           << so.rate << ' ' << so.count << ' ';
        writeVector(os, so.spatial.multipliers());
        os << '\n';
    }
    os << "end\n";
}

void
writeProfileFile(const ErrorProfile &profile, const std::string &path)
{
    OutputFile out;
    std::string error;
    if (!out.open(path, &error))
        DNASIM_FATAL(error);
    writeProfile(profile, out.stream());
    if (!out.commit(&error))
        DNASIM_FATAL(error);
}

ErrorProfile
readProfile(std::istream &is)
{
    ErrorProfile p;
    std::string line;
    bool saw_magic = false, saw_end = false;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream in(line);
        std::string key;
        in >> key;
        if (!saw_magic) {
            int version = 0;
            if (key != kMagic || !(in >> version) ||
                version != kVersion) {
                DNASIM_FATAL("not a dnasim profile (expected '",
                             kMagic, ' ', kVersion, "' header)");
            }
            saw_magic = true;
            continue;
        }
        if (key == "design_length") {
            in >> p.design_length;
            if (p.design_length == 0 ||
                p.design_length > ErrorProfile::kMaxDesignLength) {
                DNASIM_FATAL("profile: design_length ", p.design_length,
                             " is outside [1, ",
                             ErrorProfile::kMaxDesignLength, "]");
            }
        } else if (key == "aggregate") {
            in >> p.p_sub >> p.p_ins >> p.p_del;
            for (double x : {p.p_sub, p.p_ins, p.p_del})
                checkProbability("aggregate", x);
        } else if (key == "conditional") {
            for (size_t b = 0; b < kNumBases; ++b) {
                in >> p.p_sub_given[b] >> p.p_ins_given[b] >>
                    p.p_del_given[b];
                for (double x : {p.p_sub_given[b], p.p_ins_given[b],
                                 p.p_del_given[b]})
                    checkProbability("conditional", x);
            }
        } else if (key == "confusion") {
            char base = 0;
            in >> base;
            if (!isBaseChar(base))
                DNASIM_FATAL("profile: bad confusion base");
            for (double &x : p.confusion[baseIndex(base)]) {
                in >> x;
                checkProbability("confusion", x);
            }
        } else if (key == "insert_base") {
            for (double &x : p.insert_base) {
                in >> x;
                checkProbability("insert_base", x);
            }
        } else if (key == "long_del") {
            in >> p.p_long_del;
            checkProbability("long_del", p.p_long_del);
            p.long_del_len_weights = readVector(in, "long_del");
        } else if (key == "homopolymer_mult") {
            in >> p.homopolymer_mult;
        } else if (key == "spatial") {
            p.spatial =
                profileFromMultipliers(readVector(in, "spatial"));
        } else if (key == "second_order") {
            std::string tag;
            char base = 0, repl = 0;
            SecondOrderSpec spec;
            in >> tag >> base >> repl >> spec.rate >> spec.count;
            checkProbability("second_order", spec.rate);
            spec.key.type = opTypeFromTag(tag);
            if (!isBaseChar(base))
                DNASIM_FATAL("profile: bad second-order base");
            spec.key.base = base;
            spec.key.repl = repl == '-' ? '\0' : repl;
            if (spec.key.repl != '\0' && !isBaseChar(spec.key.repl))
                DNASIM_FATAL("profile: bad second-order replacement");
            spec.spatial = profileFromMultipliers(
                readVector(in, "second_order"));
            p.second_order.push_back(std::move(spec));
        } else if (key == "end") {
            saw_end = true;
            break;
        } else {
            DNASIM_FATAL("profile: unknown key '", key, "'");
        }
        if (in.fail())
            DNASIM_FATAL("profile: malformed line '", line, "'");
    }
    if (!saw_magic)
        DNASIM_FATAL("profile: empty input");
    if (!saw_end)
        DNASIM_FATAL("profile: missing 'end' terminator");
    checkConsistent(p);
    return p;
}

ErrorProfile
readProfileFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        DNASIM_FATAL("cannot open '", path, "' for reading");
    return readProfile(in);
}

} // namespace dnasim
