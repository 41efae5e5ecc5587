/**
 * @file
 * Subcommands of the dnasim command-line tool.
 */

#ifndef DNASIM_CLI_COMMANDS_HH
#define DNASIM_CLI_COMMANDS_HH

#include <memory>
#include <string>

#include "cli/args.hh"
#include "cluster/greedy_cluster.hh"
#include "core/error_model.hh"
#include "core/error_profile.hh"
#include "data/dataset.hh"
#include "reconstruct/reconstructor.hh"

namespace dnasim
{

/** CLI factory: reconstructor for an --algo name (fatal on unknown). */
std::unique_ptr<Reconstructor>
makeReconstructor(const std::string &name);

/** CLI factory: channel model for a --model name (fatal on unknown). */
std::unique_ptr<ErrorModel> makeModel(const std::string &name,
                                      const ErrorProfile &profile);

/** Shared --distance-threshold/--max-probes/--sketch-* parsing. */
ClusterOptions clusterOptionsFromArgs(const Args &args);

/**
 * The saved profile named by --error-profile, or a fresh
 * calibration from @p dataset when none is given.
 */
ErrorProfile errorProfileFromArgs(const Args &args,
                                  const Dataset &dataset);

/**
 * Fatal unless every flag in @p args is a global flag or one the
 * command (positional 0) reads, and no bare boolean flag (--recluster,
 * --json, --stats, --profile) carries a value. Unknown
 * commands pass; dispatch reports them.
 */
void checkFlags(const Args &args);

/** generate: synthesize a wetlab-like dataset into an evyat file. */
int cmdGenerate(const Args &args);

/** calibrate: fit an ErrorProfile from an evyat file and print it. */
int cmdCalibrate(const Args &args);

/** simulate: calibrate from one dataset and simulate another. */
int cmdSimulate(const Args &args);

/** reconstruct: run a TR algorithm over a dataset, report accuracy. */
int cmdReconstruct(const Args &args);

/** analyze: positional profiles and second-order census. */
int cmdAnalyze(const Args &args);

/** ingest: pack a text read set into an mmap-backed pool file. */
int cmdIngest(const Args &args);

/** cluster: re-cluster a shuffled read pool and score purity. */
int cmdCluster(const Args &args);

/** explain: ground-truth failure forensics over a simulated run. */
int cmdExplain(const Args &args);

/** roundtrip: store a file in simulated DNA and read it back. */
int cmdRoundtrip(const Args &args);

/** bench: noise-aware diff of two sets of bench reports. */
int cmdBench(const Args &args);

/** Print top-level usage. */
void printUsage();

} // namespace dnasim

#endif // DNASIM_CLI_COMMANDS_HH
