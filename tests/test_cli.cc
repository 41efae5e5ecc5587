/**
 * @file
 * Tests for the command-line layer: flag parsing and the dnasim
 * subcommands run end-to-end against temporary files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "align/simd_dispatch.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "cli/args.hh"
#include "cli/commands.hh"
#include "data/io.hh"
#include "obs/json.hh"
#include "obs/progress.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"
#include "pipeline/checkpoint.hh"

namespace dnasim
{
namespace
{

Args
makeArgs(std::vector<std::string> tokens)
{
    std::vector<const char *> argv;
    argv.reserve(tokens.size());
    for (const auto &t : tokens)
        argv.push_back(t.c_str());
    return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, Positionals)
{
    Args args = makeArgs({"reconstruct", "file.evyat"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "reconstruct");
    EXPECT_EQ(args.positional()[1], "file.evyat");
}

TEST(Args, SpaceSeparatedOption)
{
    Args args = makeArgs({"--algo", "bma", "--coverage", "5"});
    EXPECT_TRUE(args.has("algo"));
    EXPECT_EQ(args.get("algo"), "bma");
    EXPECT_EQ(args.getInt("coverage", 0), 5);
}

TEST(Args, EqualsFormOption)
{
    Args args = makeArgs({"--rate=0.06", "--name=x"});
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 0.06);
    EXPECT_EQ(args.get("name"), "x");
}

TEST(Args, ValuelessFlagBeforeAnotherFlag)
{
    Args args = makeArgs({"--verbose", "--out", "f.txt"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.get("verbose"), "");
    EXPECT_EQ(args.get("out"), "f.txt");
}

TEST(Args, DefaultsWhenAbsent)
{
    Args args = makeArgs({});
    EXPECT_FALSE(args.has("x"));
    EXPECT_EQ(args.get("x", "fallback"), "fallback");
    EXPECT_EQ(args.getInt("x", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("x", 2.5), 2.5);
    EXPECT_EQ(args.getSeed("x", 7u), 7u);
}

TEST(Args, SeedAcceptsHex)
{
    Args args = makeArgs({"--seed", "0xff"});
    EXPECT_EQ(args.getSeed("seed", 0), 255u);
}

TEST(Args, MalformedNumberIsFatal)
{
    Args args = makeArgs({"--coverage", "five"});
    EXPECT_THROW(args.getInt("coverage", 0), FatalError);
    Args args2 = makeArgs({"--rate", "fast"});
    EXPECT_THROW(args2.getDouble("rate", 0.0), FatalError);
}

TEST(Args, BareDoubleDashIsFatal)
{
    EXPECT_THROW(makeArgs({"--"}), FatalError);
}

TEST(Args, CountsRejectNegativesAndOutOfRangeValues)
{
    Args args = makeArgs({"--coverage", "-3", "--clusters", "0",
                          "--threads", "200000", "--shards", "4"});
    EXPECT_THROW(args.getCount("coverage", 6), FatalError);
    EXPECT_THROW(args.getCount("clusters", 1000, 1), FatalError);
    EXPECT_THROW(args.getCount("threads", 0, 0, par::kMaxThreads),
                 FatalError);
    EXPECT_EQ(args.getCount("shards", 1), 4u);
    EXPECT_EQ(args.getCount("absent", 7, 1), 7u);
    EXPECT_THROW(makeArgs({"--threads", "-1"})
                     .getCount("threads", 0, 0, par::kMaxThreads),
                 FatalError);
    EXPECT_THROW(makeArgs({"--buckets", "0"}).getCount("buckets", 11, 1),
                 FatalError);
}

TEST(Args, RealRangesAreHalfOpen)
{
    Args args = makeArgs({"--low", "0", "--high", "0.5", "--neg",
                          "-0.5", "--nan", "nan"});
    EXPECT_DOUBLE_EQ(args.getDouble("low", 1.0, 0.0, 0.5), 0.0);
    EXPECT_THROW(args.getDouble("high", 0.0, 0.0, 0.5), FatalError);
    EXPECT_THROW(args.getDouble("neg", 0.0, 0.0, 0.5), FatalError);
    EXPECT_THROW(args.getDouble("nan", 0.0, 0.0, 0.5), FatalError);
    EXPECT_THROW(args.getDouble("low", 1.0, 0.0, 1.0,
                                /*min_exclusive=*/true),
                 FatalError);
    EXPECT_DOUBLE_EQ(args.getDouble("absent", 2.5, 0.0, 1.0), 2.5);
}

/** Restore the default thread count when a test scope exits. */
struct ThreadGuard
{
    explicit ThreadGuard(size_t n) { par::setThreads(n); }
    ~ThreadGuard() { par::setThreads(0); }
};

/** Redirect std::cout into a string for the guard's lifetime. */
class StdoutCapture
{
  public:
    StdoutCapture() : saved_(std::cout.rdbuf(out_.rdbuf())) {}
    ~StdoutCapture() { std::cout.rdbuf(saved_); }

    std::string str() const { return out_.str(); }

  private:
    std::ostringstream out_;
    std::streambuf *saved_;
};

TEST(CliFlags, UnknownFlagIsFatal)
{
    EXPECT_THROW(checkFlags(makeArgs({"roundtrip", "f", "--covrage",
                                      "3"})),
                 FatalError);
    EXPECT_NO_THROW(checkFlags(makeArgs({"roundtrip", "f", "--coverage",
                                         "3", "--threads", "2"})));
    // Unknown commands are left to dispatch.
    EXPECT_NO_THROW(checkFlags(makeArgs({"frobnicate", "--x", "1"})));
}

TEST(CliFlags, ValueGivenToBooleanIsFatal)
{
    // --recluster FILE would swallow the positional; --profile FILE
    // used to be read as the error-profile path.
    EXPECT_THROW(checkFlags(makeArgs({"roundtrip", "--recluster",
                                      "payload.bin"})),
                 FatalError);
    EXPECT_THROW(checkFlags(makeArgs({"simulate", "d.evyat",
                                      "--profile", "p.txt"})),
                 FatalError);
    EXPECT_THROW(checkFlags(makeArgs({"explain", "--json=yes"})),
                 FatalError);
    EXPECT_NO_THROW(checkFlags(makeArgs({"roundtrip", "payload.bin",
                                         "--recluster", "--profile",
                                         "--stats"})));
}

TEST(CliFlags, RemovedFlagsAreFatal)
{
    // The seventh removed spelling, a valued --profile FILE, is a
    // case of ValueGivenToBooleanIsFatal.
    for (const char *command : {"cluster", "roundtrip", "explain"}) {
        EXPECT_THROW(checkFlags(makeArgs({command, "in",
                                          "--cluster-index", "sketch"})),
                     FatalError)
            << command;
    }
    for (const char *flag : {"--threshold", "--sigma", "--mem-threshold"})
        EXPECT_THROW(checkFlags(makeArgs({"bench", "diff", "a", "b",
                                          flag, "0.1"})),
                     FatalError)
            << flag;
    for (const char *flag : {"--mem-gate", "--json"})
        EXPECT_THROW(
            checkFlags(makeArgs({"bench", "diff", "a", "b", flag})),
            FatalError)
            << flag;
    // The live-monitoring sinks and the watch verb's flags are gone
    // from every command.
    for (const char *command : {"simulate", "roundtrip", "bench"}) {
        for (const char *flag :
             {"--metrics-out", "--telemetry-out", "--telemetry-interval",
              "--follow", "--interval"}) {
            EXPECT_THROW(checkFlags(makeArgs({command, "in", flag, "5"})),
                         FatalError)
                << command << " " << flag;
        }
    }
    EXPECT_THROW(checkFlags(makeArgs({"bench", "list", "--ledger",
                                      "BENCH_LEDGER.jsonl"})),
                 FatalError);
    // So is the ledger half of bench: its verbs print the usage and
    // fail like any unknown verb.
    for (const char *verb : {"ingest", "list"}) {
        std::ostringstream err;
        std::streambuf *saved = std::cerr.rdbuf(err.rdbuf());
        const int rc = cmdBench(makeArgs({"bench", verb, "in"}));
        std::cerr.rdbuf(saved);
        EXPECT_EQ(rc, 1) << verb;
        EXPECT_NE(err.str().find("usage: dnasim bench diff"),
                  std::string::npos)
            << verb << ": " << err.str();
    }
}

TEST(CliFlags, EveryUsageFlagIsAccepted)
{
    // The usage text and the flag table cannot drift: every flag
    // printUsage() lists under a command passes checkFlags for it,
    // and every global flag passes for every command.
    std::string usage;
    {
        StdoutCapture capture;
        printUsage();
        usage = capture.str();
    }
    const std::regex command_re("^  ([a-z]+)  +");
    const std::regex flag_re("--([a-z][a-z-]*)");
    std::map<std::string, std::set<std::string>> per_command;
    std::set<std::string> global;
    std::string command;
    bool in_global = false;
    std::istringstream lines(usage);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("global flags", 0) == 0) {
            in_global = true;
            continue;
        }
        std::smatch m;
        if (!in_global && std::regex_search(line, m, command_re)) {
            command = m[1];
            per_command[command];
        }
        for (std::sregex_iterator it(line.begin(), line.end(), flag_re),
             end;
             it != end; ++it) {
            if (in_global)
                global.insert((*it)[1]);
            else if (!command.empty())
                per_command[command].insert((*it)[1]);
        }
    }
    ASSERT_EQ(per_command.size(), 10u);
    ASSERT_EQ(global.size(), 7u);
    for (const auto &[cmd, flags] : per_command) {
        for (const std::string &flag : flags)
            EXPECT_NO_THROW(checkFlags(makeArgs({cmd, "--" + flag})))
                << cmd << " --" << flag;
        for (const std::string &flag : global)
            EXPECT_NO_THROW(checkFlags(makeArgs({cmd, "--" + flag})))
                << cmd << " --" << flag;
    }
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

class CliCommands : public ::testing::Test
{
  protected:
    /**
     * A scratch path private to the running test, so tests that
     * ctest runs in parallel processes never share files.
     */
    std::string
    tmpPath(const std::string &name)
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        return ::testing::TempDir() + "/dnasim_cli_" +
               info->test_suite_name() + "_" + info->name() + "_" +
               name;
    }

    void
    TearDown() override
    {
        for (const auto &path : cleanup_)
            std::remove(path.c_str());
    }

    std::vector<std::string> cleanup_;
};

TEST_F(CliCommands, GenerateCalibrateReconstructFlow)
{
    std::string dataset = tmpPath("flow.evyat");
    cleanup_.push_back(dataset);

    Args gen = makeArgs({"generate", "--clusters", "30", "--out",
                         dataset, "--seed", "11"});
    EXPECT_EQ(cmdGenerate(gen), 0);

    Dataset parsed = readEvyatFile(dataset);
    EXPECT_EQ(parsed.size(), 30u);

    Args cal = makeArgs({"calibrate", dataset});
    EXPECT_EQ(cmdCalibrate(cal), 0);

    Args rec = makeArgs({"reconstruct", dataset, "--algo",
                         "iterative", "--coverage", "5"});
    EXPECT_EQ(cmdReconstruct(rec), 0);

    Args ana = makeArgs({"analyze", dataset});
    EXPECT_EQ(cmdAnalyze(ana), 0);
}

TEST_F(CliCommands, SimulateProducesDataset)
{
    std::string dataset = tmpPath("sim_in.evyat");
    std::string simulated = tmpPath("sim_out.evyat");
    cleanup_.push_back(dataset);
    cleanup_.push_back(simulated);

    Args gen = makeArgs({"generate", "--clusters", "25", "--out",
                         dataset, "--seed", "12"});
    ASSERT_EQ(cmdGenerate(gen), 0);

    Args sim = makeArgs({"simulate", dataset, "--model", "skew",
                         "--out", simulated});
    EXPECT_EQ(cmdSimulate(sim), 0);

    Dataset in = readEvyatFile(dataset);
    Dataset out = readEvyatFile(simulated);
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].reference, in[i].reference);
        EXPECT_EQ(out[i].coverage(), in[i].coverage());
    }
}

TEST_F(CliCommands, SimulateBareProfileFlagIsNotAProfileFile)
{
    // Bare --profile (the global phase-profiler flag) parses with an
    // empty value; simulate must treat it as "no calibrated profile
    // given" rather than trying to open '' as a profile file.
    std::string dataset = tmpPath("prof_in.evyat");
    std::string simulated = tmpPath("prof_out.evyat");
    cleanup_.push_back(dataset);
    cleanup_.push_back(simulated);

    Args gen = makeArgs({"generate", "--clusters", "10", "--out",
                         dataset, "--seed", "3"});
    ASSERT_EQ(cmdGenerate(gen), 0);

    Args sim = makeArgs({"simulate", dataset, "--profile", "--out",
                         simulated});
    EXPECT_EQ(cmdSimulate(sim), 0);
    EXPECT_EQ(readEvyatFile(simulated).size(), 10u);
}

TEST_F(CliCommands, SimulateReusesCalibratedErrorProfile)
{
    std::string dataset = tmpPath("reuse_in.evyat");
    std::string profile = tmpPath("reuse_profile.txt");
    std::string simulated = tmpPath("reuse_out.evyat");
    cleanup_.push_back(dataset);
    cleanup_.push_back(profile);
    cleanup_.push_back(simulated);

    Args gen = makeArgs({"generate", "--clusters", "15", "--out",
                         dataset, "--seed", "4"});
    ASSERT_EQ(cmdGenerate(gen), 0);
    Args cal = makeArgs({"calibrate", dataset, "--out", profile});
    ASSERT_EQ(cmdCalibrate(cal), 0);

    Args sim = makeArgs({"simulate", dataset, "--error-profile",
                         profile, "--out", simulated});
    EXPECT_EQ(cmdSimulate(sim), 0);
    EXPECT_EQ(readEvyatFile(simulated).size(), 15u);

    // --error-profile is the one spelling: a valued --profile is
    // rejected before the command runs.
    EXPECT_THROW(checkFlags(makeArgs({"simulate", dataset, "--profile",
                                      profile, "--out", simulated})),
                 FatalError);
}

TEST_F(CliCommands, SimulateRejectsHugeDesignLengthProfile)
{
    // The channel sizes a rate table by the profile's design_length,
    // so a hostile value must fail the read, not the allocation.
    std::string dataset = tmpPath("huge_in.evyat");
    std::string profile = tmpPath("huge_profile.txt");
    std::string simulated = tmpPath("huge_out.evyat");
    cleanup_.insert(cleanup_.end(), {dataset, profile, simulated});
    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "5",
                                    "--out", dataset, "--seed", "6"})),
              0);
    {
        std::ofstream out(profile);
        out << "dnasim-profile 1\ndesign_length 4000000000000\n"
               "aggregate 0.01 0.01 0.01\nend\n";
    }
    EXPECT_THROW(cmdSimulate(makeArgs({"simulate", dataset,
                                       "--error-profile", profile,
                                       "--out", simulated})),
                 FatalError);
}

TEST_F(CliCommands, LineageKeepsDataOutputsByteIdentical)
{
    // Recording ground-truth lineage must not change a data byte:
    // simulate through the second-order channel and cluster, each
    // with and without --lineage-out.
    std::string dataset = tmpPath("lin.evyat");
    std::string sim_plain = tmpPath("lin_sim.evyat");
    std::string sim_logged = tmpPath("lin_sim_logged.evyat");
    std::string sim_lineage = tmpPath("lin_simulate.jsonl");
    std::string cl_plain = tmpPath("lin_cl.txt");
    std::string cl_logged = tmpPath("lin_cl_logged.txt");
    std::string cl_lineage = tmpPath("lin_cluster.jsonl");
    cleanup_.insert(cleanup_.end(),
                    {dataset, sim_plain, sim_logged, sim_lineage,
                     cl_plain, cl_logged, cl_lineage});
    StdoutCapture quiet;
    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "150",
                                    "--out", dataset, "--seed", "31"})),
              0);

    ASSERT_EQ(cmdSimulate(makeArgs({"simulate", dataset, "--model",
                                    "second-order", "--seed", "33",
                                    "--out", sim_plain})),
              0);
    ASSERT_EQ(cmdSimulate(makeArgs({"simulate", dataset, "--model",
                                    "second-order", "--seed", "33",
                                    "--out", sim_logged,
                                    "--lineage-out", sim_lineage})),
              0);
    EXPECT_FALSE(readFileBytes(sim_plain).empty());
    EXPECT_EQ(readFileBytes(sim_plain), readFileBytes(sim_logged));
    EXPECT_FALSE(readFileBytes(sim_lineage).empty());

    ASSERT_EQ(cmdCluster(makeArgs({"cluster", dataset,
                                   "--distance-threshold", "22",
                                   "--out", cl_plain})),
              0);
    ASSERT_EQ(cmdCluster(makeArgs({"cluster", dataset,
                                   "--distance-threshold", "22",
                                   "--out", cl_logged, "--lineage-out",
                                   cl_lineage})),
              0);
    EXPECT_FALSE(readFileBytes(cl_plain).empty());
    EXPECT_EQ(readFileBytes(cl_plain), readFileBytes(cl_logged));
    EXPECT_FALSE(readFileBytes(cl_lineage).empty());
}

TEST_F(CliCommands, ZeroClusterDatasetSimulatesOnBothPaths)
{
    std::string dataset = tmpPath("zero_src.evyat");
    std::string profile = tmpPath("zero_profile.txt");
    std::string empty = tmpPath("zero.evyat");
    std::string simulated = tmpPath("zero_out.evyat");
    std::string checkpoint = tmpPath("zero_ck");
    cleanup_.insert(cleanup_.end(),
                    {dataset, profile, empty, simulated});

    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "10",
                                    "--out", dataset, "--seed", "5"})),
              0);
    ASSERT_EQ(cmdCalibrate(
                  makeArgs({"calibrate", dataset, "--out", profile})),
              0);
    writeEvyatFile(Dataset(), empty);

    // In memory: an empty dataset in, an empty dataset out.
    EXPECT_EQ(cmdSimulate(makeArgs({"simulate", empty,
                                    "--error-profile", profile, "--out",
                                    simulated})),
              0);
    EXPECT_EQ(readEvyatFile(simulated).size(), 0u);

    // The checkpoint path commits an empty simulate stage.
    std::filesystem::remove_all(checkpoint);
    EXPECT_EQ(cmdSimulate(makeArgs({"simulate", empty,
                                    "--error-profile", profile,
                                    "--checkpoint-dir", checkpoint})),
              0);
    CheckpointDir ckpt(checkpoint);
    CheckpointManifest manifest;
    std::string error;
    ASSERT_TRUE(ckpt.readManifest(manifest, &error)) << error;
    EXPECT_EQ(manifest.stage, "simulate");
    EXPECT_EQ(manifest.num_refs, 0u);
    EXPECT_EQ(manifest.num_reads, 0u);
    std::filesystem::remove_all(checkpoint);
}

TEST_F(CliCommands, SimulateAndReconstructAreIdenticalAcrossThreadCounts)
{
    std::string dataset = tmpPath("det.evyat");
    std::string simulated = tmpPath("det_sim.evyat");
    cleanup_.insert(cleanup_.end(), {dataset, simulated});
    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "60",
                                    "--out", dataset, "--seed", "11"})),
              0);

    std::string first_evyat;
    std::string first_stdout;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        ThreadGuard guard(threads);
        std::string stdout_text;
        {
            StdoutCapture capture;
            EXPECT_EQ(cmdSimulate(makeArgs(
                          {"simulate", dataset, "--model",
                           "second-order", "--seed", "13", "--out",
                           simulated})),
                      0);
            EXPECT_EQ(cmdReconstruct(makeArgs({"reconstruct", simulated,
                                               "--algo", "bma",
                                               "--seed", "17"})),
                      0);
            stdout_text = capture.str();
        }
        const std::string evyat = readFileBytes(simulated);
        ASSERT_FALSE(evyat.empty());
        if (threads == 1) {
            first_evyat = evyat;
            first_stdout = stdout_text;
            continue;
        }
        EXPECT_EQ(evyat, first_evyat) << threads << " threads";
        EXPECT_EQ(stdout_text, first_stdout) << threads << " threads";
    }
}

/** Force a SIMD tier for the guard's lifetime, then restore auto. */
struct SimdGuard
{
    explicit SimdGuard(const char *tier)
    {
        EXPECT_TRUE(applySimdOverride(tier)) << tier;
    }
    ~SimdGuard() { applySimdOverride("auto"); }
};

TEST_F(CliCommands, ClusterReconstructRoundtripIdenticalAcrossSimdTiers)
{
    std::string dataset = tmpPath("simd.evyat");
    std::string simulated = tmpPath("simd_sim.evyat");
    std::string clusters = tmpPath("simd_clusters.txt");
    std::string payload = tmpPath("simd_payload.bin");
    cleanup_.insert(cleanup_.end(),
                    {dataset, simulated, clusters, payload});
    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "60",
                                    "--out", dataset, "--seed", "31"})),
              0);
    {
        std::ofstream out(payload, std::ios::binary);
        Rng rng(0x9a1);
        for (size_t i = 0; i < 2000; ++i)
            out.put(static_cast<char>(rng.index(256)));
    }

    {
        StdoutCapture quiet;
        ASSERT_EQ(cmdSimulate(makeArgs({"simulate", dataset, "--model",
                                        "second-order", "--seed", "33",
                                        "--out", simulated})),
                  0);
    }

    std::string first_clusters;
    std::string first_stdout;
    for (const char *tier : {"scalar", "avx2", "auto"}) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
            SimdGuard simd(tier);
            ThreadGuard guard(threads);
            {
                // cluster stdout carries a wall-clock reads/s
                // column; its --out dump is the comparable artifact.
                StdoutCapture quiet;
                ASSERT_EQ(cmdCluster(makeArgs({"cluster", simulated,
                                               "--seed", "37", "--out",
                                               clusters})),
                          0);
            }
            std::string stdout_text;
            {
                StdoutCapture capture;
                EXPECT_EQ(cmdReconstruct(makeArgs(
                              {"reconstruct", simulated, "--algo",
                               "bma", "--seed", "39"})),
                          0);
                // The roundtrip exit codes join the compared text.
                std::cout << cmdRoundtrip(
                                 makeArgs({"roundtrip", payload}))
                          << cmdRoundtrip(makeArgs(
                                 {"roundtrip", payload, "--recluster",
                                  "--algo", "bma"}))
                          << "\n";
                stdout_text = capture.str();
            }
            const std::string clustering = readFileBytes(clusters);
            ASSERT_FALSE(clustering.empty());
            if (first_clusters.empty()) {
                first_clusters = clustering;
                first_stdout = stdout_text;
                continue;
            }
            EXPECT_EQ(clustering, first_clusters)
                << tier << " at " << threads << " threads";
            EXPECT_EQ(stdout_text, first_stdout)
                << tier << " at " << threads << " threads";
        }
    }
}

TEST_F(CliCommands, HostileCheckpointFilesAreFatal)
{
    std::string dataset = tmpPath("hostile.evyat");
    std::string base = tmpPath("hostile_ck");
    std::string bad = tmpPath("hostile_bad");
    cleanup_.push_back(dataset);
    std::filesystem::remove_all(base);
    StdoutCapture quiet;
    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "50",
                                    "--out", dataset, "--seed", "3"})),
              0);
    ASSERT_EQ(cmdSimulate(makeArgs({"simulate", dataset,
                                    "--checkpoint-dir", base})),
              0);
    ASSERT_EQ(cmdCluster(makeArgs({"cluster", "--checkpoint-dir", base})),
              0);
    CheckpointDir ckpt(base);
    CheckpointManifest manifest;
    ASSERT_TRUE(ckpt.readManifest(manifest));
    std::vector<uint32_t> assignments;
    std::vector<uint32_t> origins;
    ASSERT_TRUE(readU32File(ckpt.assignmentsPath(), assignments));
    ASSERT_TRUE(readU32File(ckpt.originsPath(), origins));
    ASSERT_EQ(assignments.size(), origins.size());

    /** Each file to corrupt, what to write there, and the command. */
    struct Corruption
    {
        const char *what;
        std::string file;
        std::vector<uint32_t> values;
        int (*command)(const Args &);
    };
    auto with = [](std::vector<uint32_t> values, size_t i,
                   uint32_t value) {
        values[i] = value;
        return values;
    };
    std::vector<uint32_t> longer = assignments;
    longer.resize(longer.size() + 10, 0);
    std::vector<uint32_t> shorter(origins.begin(), origins.end() - 5);
    const std::vector<uint32_t> foreign(
        origins.size(), static_cast<uint32_t>(manifest.num_refs));
    const std::vector<Corruption> corruptions = {
        {"wrapping cluster id", "assignments.u32",
         with(assignments, 0, 0xFFFFFFFFu), cmdReconstruct},
        {"huge cluster id", "assignments.u32",
         with(assignments, 0, 0x7FFFFFFFu), cmdReconstruct},
        {"origins shorter than assignments", "origins.u32", shorter,
         cmdReconstruct},
        {"assignments longer than the pool", "assignments.u32", longer,
         cmdReconstruct},
        {"origin past the references", "origins.u32", foreign,
         cmdReconstruct},
        {"representative id out of range", "assignments.u32",
         with(assignments, 0, 0xFFFFFFu), cmdCluster},
    };
    for (const Corruption &c : corruptions) {
        std::filesystem::remove_all(bad);
        std::filesystem::copy(base, bad);
        ASSERT_TRUE(writeU32File(bad + "/" + c.file, c.values));
        EXPECT_THROW(c.command(makeArgs({"--checkpoint-dir", bad})),
                     FatalError)
            << c.what;
    }

    // The intact checkpoint still resumes and reconstructs.
    EXPECT_EQ(cmdCluster(makeArgs({"cluster", "--checkpoint-dir", base})),
              0);
    EXPECT_EQ(cmdReconstruct(
                  makeArgs({"reconstruct", "--checkpoint-dir", base})),
              0);
    std::filesystem::remove_all(base);
    std::filesystem::remove_all(bad);
}

TEST_F(CliCommands, ReconstructUnknownAlgoIsFatal)
{
    std::string dataset = tmpPath("bad_algo.evyat");
    cleanup_.push_back(dataset);
    Args gen = makeArgs({"generate", "--clusters", "5", "--out",
                         dataset});
    ASSERT_EQ(cmdGenerate(gen), 0);
    Args rec = makeArgs({"reconstruct", dataset, "--algo", "magic"});
    EXPECT_THROW(cmdReconstruct(rec), FatalError);
}

TEST_F(CliCommands, SimulateUnknownModelIsFatal)
{
    std::string dataset = tmpPath("bad_model.evyat");
    cleanup_.push_back(dataset);
    Args gen = makeArgs({"generate", "--clusters", "5", "--out",
                         dataset});
    ASSERT_EQ(cmdGenerate(gen), 0);
    Args sim = makeArgs({"simulate", dataset, "--model", "magic"});
    EXPECT_THROW(cmdSimulate(sim), FatalError);
}

TEST_F(CliCommands, RoundtripStoresAndRetrieves)
{
    std::string payload = tmpPath("payload.bin");
    cleanup_.push_back(payload);
    {
        std::ofstream out(payload, std::ios::binary);
        out << "the quick brown fox stores itself in dna";
    }
    Args rt = makeArgs({"roundtrip", payload, "--coverage", "6",
                        "--error-rate", "0.03"});
    EXPECT_EQ(cmdRoundtrip(rt), 0);
}

TEST_F(CliCommands, RoundtripMissingFileIsFatal)
{
    Args rt = makeArgs({"roundtrip", "/nonexistent/file.bin"});
    EXPECT_THROW(cmdRoundtrip(rt), FatalError);
}

TEST_F(CliCommands, OutOfRangeCountsAreFatal)
{
    // Each used to abort on a std::length_error or a library assert.
    const std::string out = tmpPath("range.evyat");
    const std::string payload = tmpPath("range_payload.bin");
    cleanup_.insert(cleanup_.end(), {out, payload});
    std::ofstream(payload) << "payload";
    for (std::vector<std::string> bad :
         {std::vector<std::string>{"--clusters", "-1"},
          {"--clusters", "0"},
          {"--length", "0"},
          {"--length", "4"}}) {
        std::vector<std::string> tokens = {"generate", "--out", out};
        tokens.insert(tokens.end(), bad.begin(), bad.end());
        EXPECT_THROW(cmdGenerate(makeArgs(tokens)), FatalError)
            << bad[0] << " " << bad[1];
    }
    EXPECT_THROW(cmdRoundtrip(makeArgs({"roundtrip", payload,
                                        "--coverage", "-3"})),
                 FatalError);
    EXPECT_THROW(cmdRoundtrip(makeArgs({"roundtrip", payload,
                                        "--coverage", "0"})),
                 FatalError);
}

TEST_F(CliCommands, OutOfRangeRatesAreFatal)
{
    // generate asserted; roundtrip accepted a negative rate silently.
    const std::string out = tmpPath("rate.evyat");
    const std::string payload = tmpPath("rate_payload.bin");
    cleanup_.insert(cleanup_.end(), {out, payload});
    std::ofstream(payload) << "payload";
    for (std::vector<std::string> bad :
         {std::vector<std::string>{"--error-rate", "3"},
          {"--error-rate", "0.5"},
          {"--error-rate", "-0.1"},
          {"--coverage", "-5"},
          {"--coverage", "0"}}) {
        std::vector<std::string> tokens = {"generate", "--out", out};
        tokens.insert(tokens.end(), bad.begin(), bad.end());
        EXPECT_THROW(cmdGenerate(makeArgs(tokens)), FatalError)
            << bad[0] << " " << bad[1];
    }
    EXPECT_THROW(cmdRoundtrip(makeArgs({"roundtrip", payload,
                                        "--error-rate", "-0.5"})),
                 FatalError);
}

TEST_F(CliCommands, OversizedSketchShapeIsFatal)
{
    // bands x rows over the 64-slot signature used to abort on a
    // library assert; 2^32 x 2^32 wrapped past it into bad_alloc.
    const std::string dataset = tmpPath("sketch.evyat");
    const std::string payload = tmpPath("sketch_payload.bin");
    cleanup_.insert(cleanup_.end(), {dataset, payload});
    std::ofstream(payload) << "payload";
    StdoutCapture quiet;
    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "5",
                                    "--out", dataset})),
              0);
    const std::vector<std::pair<std::string, std::string>> shapes = {
        {"40", "2"}, {"4294967296", "4294967296"}};
    for (const auto &[bands, rows] : shapes) {
        const std::vector<std::string> shape = {
            "--sketch-bands", bands, "--sketch-rows", rows};
        auto with_shape = [&](std::vector<std::string> tokens) {
            tokens.insert(tokens.end(), shape.begin(), shape.end());
            return makeArgs(tokens);
        };
        const std::pair<const char *, std::function<int()>> runs[] = {
            {"cluster",
             [&] { return cmdCluster(with_shape({"cluster", dataset})); }},
            {"roundtrip",
             [&] {
                 return cmdRoundtrip(
                     with_shape({"roundtrip", payload, "--recluster"}));
             }},
            {"explain",
             [&] { return cmdExplain(with_shape({"explain", dataset})); }},
        };
        for (const auto &[command, run] : runs) {
            try {
                run();
                ADD_FAILURE() << command << " accepted " << bands
                              << " x " << rows;
            } catch (const FatalError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("--sketch-bands"), std::string::npos)
                    << command << ": " << what;
                EXPECT_NE(what.find("--sketch-rows"), std::string::npos)
                    << command << ": " << what;
            }
        }
    }
    // The widest shape that fits still clusters.
    EXPECT_EQ(cmdCluster(makeArgs({"cluster", dataset, "--sketch-bands",
                                   "32", "--sketch-rows", "2"})),
              0);
}

TEST_F(CliCommands, HostilePoolIndexIsFatal)
{
    // An index entry whose strand overruns the arena is a clean
    // FatalError at open, not a panic or a fault at first access.
    const std::string dataset = tmpPath("hostile_pool.evyat");
    const std::string pool = tmpPath("hostile.dnapool");
    cleanup_.insert(cleanup_.end(), {dataset, pool});
    StdoutCapture quiet;
    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "20",
                                    "--out", dataset, "--seed", "5"})),
              0);
    ASSERT_EQ(cmdIngest(makeArgs({"ingest", dataset, "--out", pool})), 0);
    ASSERT_EQ(cmdCluster(makeArgs({"cluster", pool})), 0);
    {
        // Entry 0's length (file bytes 72..79) set to 10^9 bases.
        std::fstream f(pool, std::ios::in | std::ios::out |
                                 std::ios::binary);
        const uint64_t length = 1'000'000'000ull;
        f.seekp(72);
        f.write(reinterpret_cast<const char *>(&length), sizeof(length));
    }
    EXPECT_THROW(cmdCluster(makeArgs({"cluster", pool})), FatalError);
}

TEST_F(CliCommands, ZeroBucketsAndIntervalsAreFatal)
{
    std::string dataset = tmpPath("buckets.evyat");
    cleanup_.push_back(dataset);
    StdoutCapture quiet;
    ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "5",
                                    "--out", dataset})),
              0);
    EXPECT_THROW(cmdAnalyze(makeArgs({"analyze", dataset, "--buckets",
                                      "0"})),
                 FatalError);
    EXPECT_THROW(cmdExplain(makeArgs({"explain", dataset, "--buckets",
                                      "0"})),
                 FatalError);
}

TEST_F(CliCommands, TelemetryKeepsOutputsByteIdentical)
{
    // The global sampler ticking every 5 ms, with the stderr
    // heartbeat painting and tracing recording RSS, must not change
    // a data byte: simulate's evyat and roundtrip's stdout match a
    // run without the sampler.
    const std::string dataset = tmpPath("tele.evyat");
    const std::string sampled = tmpPath("tele_sampled.evyat");
    const std::string plain = tmpPath("tele_plain.evyat");
    const std::string payload = tmpPath("tele_payload.bin");
    cleanup_.insert(cleanup_.end(), {dataset, sampled, plain, payload});
    {
        std::ofstream out(payload, std::ios::binary);
        Rng rng(0x7e1e);
        for (size_t i = 0; i < 2000; ++i)
            out.put(static_cast<char>(rng.index(256)));
    }
    {
        StdoutCapture quiet;
        ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "100",
                                        "--out", dataset, "--seed",
                                        "21"})),
                  0);
    }
    auto run = [&](const std::string &sim_out) {
        {
            StdoutCapture quiet;
            EXPECT_EQ(cmdSimulate(makeArgs({"simulate", dataset,
                                            "--model", "second-order",
                                            "--seed", "23", "--out",
                                            sim_out})),
                      0);
        }
        StdoutCapture capture;
        EXPECT_EQ(cmdRoundtrip(makeArgs({"roundtrip", payload,
                                         "--coverage", "6"})),
                  0);
        return capture.str();
    };

    obs::TelemetrySampler &sampler = obs::TelemetrySampler::global();
    ASSERT_FALSE(sampler.running());
    obs::Trace &trace = obs::Trace::global();
    ASSERT_FALSE(trace.enabled());
    const bool heartbeat = obs::progressHeartbeatEnabled();
    obs::setProgressHeartbeat(true);
    trace.enable();
    sampler.start(/*period_ms=*/5);
    const std::string sampled_stdout = run(sampled);
    sampler.stop();
    const size_t rss_readings = trace.rssSamples().size();
    trace.disable();
    trace.clear();
    obs::setProgressHeartbeat(heartbeat);

    const std::string plain_stdout = run(plain);
    EXPECT_FALSE(readFileBytes(plain).empty());
    EXPECT_EQ(readFileBytes(sampled), readFileBytes(plain));
    EXPECT_NE(plain_stdout.find("payload-intact=yes"), std::string::npos);
    EXPECT_EQ(sampled_stdout, plain_stdout);

    // The sampler really sampled the runs: several ticks, each one
    // an RSS reading in the trace.
    EXPECT_GE(sampler.samplesTaken(), 2u);
    EXPECT_GE(rss_readings, 2u);
}

TEST_F(CliCommands, ExplainIsIdenticalAcrossThreadCounts)
{
    // The text report and the lineage stream after its meta line
    // (whose "threads" field is honest provenance) are byte-identical
    // at any thread count, pseudo-clustered and re-clustered.
    const std::string dataset = tmpPath("explain.evyat");
    const std::string lineage = tmpPath("explain.jsonl");
    cleanup_.insert(cleanup_.end(), {dataset, lineage});
    {
        StdoutCapture quiet;
        ASSERT_EQ(cmdGenerate(makeArgs({"generate", "--clusters", "100",
                                        "--out", dataset, "--seed",
                                        "31"})),
                  0);
    }
    for (bool recluster : {false, true}) {
        std::string first_report;
        std::string first_body;
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
            ThreadGuard guard(threads);
            std::vector<std::string> tokens = {
                "explain", dataset, "--coverage", "6", "--seed", "35",
                "--lineage-out", lineage};
            if (recluster) {
                tokens.insert(tokens.end(), {"--recluster",
                                             "--distance-threshold",
                                             "22"});
            }
            std::string report;
            {
                StdoutCapture capture;
                ASSERT_EQ(cmdExplain(makeArgs(tokens)), 0);
                report = capture.str();
            }
            const std::string stream = readFileBytes(lineage);
            const size_t meta_end = stream.find('\n');
            ASSERT_NE(meta_end, std::string::npos);
            const std::string body = stream.substr(meta_end + 1);
            ASSERT_FALSE(body.empty());
            if (threads == 1) {
                first_report = report;
                first_body = body;
                continue;
            }
            EXPECT_EQ(report, first_report)
                << threads << " threads, recluster " << recluster;
            EXPECT_EQ(body, first_body)
                << threads << " threads, recluster " << recluster;
        }
    }
}

/**
 * Bench report directories laid out like the perf gate's: one
 * BENCH_perf_demo.json per repeat subdirectory r1/, r2/, ..., whose
 * single row took the given times.
 */
class BenchDiffCommand : public CliCommands
{
  protected:
    void
    SetUp() override
    {
        root_ = tmpPath("benchdiff");
        std::filesystem::remove_all(root_);
        writeRuns("baseline", {100.0, 101.0, 99.0});
        writeRuns("same", {100.0, 101.0, 99.0});
        writeRuns("slower", {120.0, 121.0, 119.0});
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(root_);
    }

    std::string dir(const std::string &side) { return root_ + "/" + side; }

    int
    diff(std::vector<std::string> extra)
    {
        std::vector<std::string> tokens = {"bench", "diff"};
        tokens.insert(tokens.end(), extra.begin(), extra.end());
        return cmdBench(makeArgs(tokens));
    }

  private:
    void
    writeRuns(const std::string &side, std::vector<double> row_ns)
    {
        for (size_t r = 0; r < row_ns.size(); ++r) {
            const std::string repeat =
                dir(side) + "/r" + std::to_string(r + 1);
            std::filesystem::create_directories(repeat);
            std::ofstream(repeat + "/BENCH_perf_demo.json")
                << "{\"schema\":\"dnasim.bench.v1\","
                   "\"name\":\"perf_demo\",\"git_rev\":\"abc1234\","
                   "\"seed\":42,\"wall_time_s\":1.0,"
                   "\"config\":{\"threads\":\"1\"},"
                   "\"benchmarks\":[{\"name\":\"BM_Main\","
                   "\"real_time_ns\":"
                << row_ns[r]
                << ",\"cpu_time_ns\":100.0,\"iterations\":1000}]}";
        }
    }

    std::string root_;
};

TEST_F(BenchDiffCommand, ExitCodes)
{
    // 0 clean, 2 regression, 1 usage or I/O error: the perf gate
    // tells "slow" apart from "broken" by these.
    EXPECT_EQ(diff({dir("baseline"), dir("same")}), 0);
    EXPECT_EQ(diff({dir("baseline"), dir("slower")}), 2);
    EXPECT_EQ(diff({dir("baseline"), dir("missing")}), 1);
    EXPECT_EQ(diff({dir("missing"), dir("same")}), 1);
    EXPECT_EQ(diff({dir("baseline")}), 1);
}

TEST_F(BenchDiffCommand, OutWritesJsonReport)
{
    const std::string out = dir("diff.json");
    ASSERT_EQ(diff({dir("baseline"), dir("slower"), "--out", out}), 2);
    std::ifstream in(out);
    ASSERT_TRUE(in.is_open());
    std::stringstream text;
    text << in.rdbuf();
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(text.str(), doc, &error)) << error;
    EXPECT_EQ(doc.find("schema")->asString(), "dnasim.benchdiff.v1");
    ASSERT_EQ(doc.find("rows")->array().size(), 1u);
    EXPECT_EQ(doc.find("rows")->array()[0].find("verdict")->asString(),
              "REGRESSED");

    // An unwritable --out is an I/O error, not a verdict.
    EXPECT_EQ(diff({dir("baseline"), dir("same"), "--out",
                    dir("no/such/dir/diff.json")}),
              1);
}

TEST_F(CliCommands, MissingPositionalIsFatal)
{
    EXPECT_THROW(cmdCalibrate(makeArgs({"calibrate"})), FatalError);
    EXPECT_THROW(cmdReconstruct(makeArgs({"reconstruct"})),
                 FatalError);
    EXPECT_THROW(cmdAnalyze(makeArgs({"analyze"})), FatalError);
    EXPECT_THROW(cmdSimulate(makeArgs({"simulate"})), FatalError);
}

} // namespace
} // namespace dnasim
