/**
 * @file
 * Data-driven calibration of an ErrorProfile from clustered data.
 *
 * For every (reference, noisy copy) pair the profiler recovers the
 * maximum-likelihood error sequence via minimum edit distance with
 * random tie-breaking (Appendix B) and accumulates:
 *
 *  - base-conditional substitution / insertion / deletion counts;
 *  - the substitution confusion matrix and inserted-base counts;
 *  - long-deletion (run length >= 2) start rate and length histogram
 *    (section 3.3.1);
 *  - the aggregate positional error histogram over gestalt-aligned
 *    error positions (section 3.3.2);
 *  - a census of second-order errors with per-error positional
 *    histograms, of which the top K become model parameters
 *    (section 3.3.3).
 *
 * This replaces DNASimulator's hand-maintained dictionaries with the
 * paper's "data-driven approach that does not require manual
 * intervention".
 *
 * The spatial profile comes from gestalt-aligned error positions:
 * the paper bases its spatial-skew parameter on the gestalt-aligned
 * comparison (Fig. 3.2b), and gestalt attribution concentrates
 * terminal misalignment on the terminal positions, which is the
 * source of the skew model's over-correction of the Iterative
 * algorithm (section 3.3.2). Copies whose edit distance to their
 * reference exceeds 30% of its length are clustering artifacts
 * (alien or truncated reads) and are excluded.
 */

#ifndef DNASIM_CORE_PROFILER_HH
#define DNASIM_CORE_PROFILER_HH

#include <cstdint>

#include "core/error_profile.hh"
#include "data/dataset.hh"

namespace dnasim
{

/**
 * Tie-breaking seed of the edit-distance backtrace: cluster i draws
 * its ties from Rng(kProfilerSeed).fork(i).
 */
inline constexpr uint64_t kProfilerSeed = 0xca11b8a7e;

/** Calibration options. */
struct ProfilerOptions
{
    /// How many second-order errors to keep (paper: top 10).
    size_t top_second_order = 10;
};

/** Calibrates ErrorProfiles from clustered datasets. */
class ErrorProfiler
{
  public:
    explicit ErrorProfiler(ProfilerOptions options = {});

    const ProfilerOptions &options() const { return options_; }

    /**
     * Calibrate a full ErrorProfile from @p data. Clusters with
     * empty references and empty clusters contribute nothing.
     * Fatal if the dataset contains no (reference, copy) pairs.
     */
    ErrorProfile calibrate(const Dataset &data) const;

  private:
    ProfilerOptions options_;
};

} // namespace dnasim

#endif // DNASIM_CORE_PROFILER_HH
