/**
 * @file
 * `dnasim ingest` — pack text read sets (plain lines, FASTA, evyat)
 * into mmap-backed dnapool files in bounded memory. The entry point
 * of the out-of-core workflow: ingest once, then cluster and
 * reconstruct any number of times against the packed pool without
 * re-parsing text or holding the reads in RAM.
 */

#include "cli/commands.hh"

#include <iostream>

#include "base/logging.hh"
#include "base/strand_pool.hh"
#include "base/table.hh"
#include "pipeline/checkpoint.hh"

namespace dnasim
{

namespace
{

IngestFormat
parseIngestFormat(const std::string &name)
{
    if (name == "auto")
        return IngestFormat::Auto;
    if (name == "lines")
        return IngestFormat::Lines;
    if (name == "fasta")
        return IngestFormat::Fasta;
    if (name == "evyat")
        return IngestFormat::Evyat;
    DNASIM_FATAL("unknown ingest format '", name,
                 "'; expected auto, lines, fasta or evyat");
}

} // anonymous namespace

int
cmdIngest(const Args &args)
{
    if (args.positional().size() < 2) {
        DNASIM_FATAL("usage: dnasim ingest <reads.{txt,fasta,evyat}> "
                     "[--format auto|lines|fasta|evyat] "
                     "[--out pool.dnapool | --checkpoint-dir DIR] "
                     "[--origins origins.u32] [--max-reads N]");
    }
    const std::string &input = args.positional()[1];

    IngestOptions options;
    options.format = parseIngestFormat(args.get("format", "auto"));
    if (options.format == IngestFormat::Auto)
        options.format = sniffIngestFormat(input);
    options.max_reads = args.getCount("max-reads", 0);

    // A checkpoint directory stands in for a completed simulate
    // stage: the packed reads (and, for clustered input, the
    // ground-truth origins) land exactly where `dnasim cluster
    // --checkpoint-dir` expects them.
    const bool to_checkpoint = args.has("checkpoint-dir");
    CheckpointDir ckpt(args.get("checkpoint-dir"));
    std::string pool_out = to_checkpoint
                               ? ckpt.readsPath()
                               : args.get("out", input + ".dnapool");
    if (args.has("origins"))
        options.origins_path = args.get("origins");
    else if (to_checkpoint && options.format == IngestFormat::Evyat)
        options.origins_path = ckpt.originsPath();

    IngestResult result;
    std::string error;
    if (!ingestToPool(input, pool_out, options, result, &error))
        DNASIM_FATAL("ingest: ", error);

    if (to_checkpoint) {
        CheckpointManifest manifest;
        manifest.stage = "simulate";
        manifest.num_reads = result.reads;
        manifest.config = {
            {"command", "ingest"},
            {"input", input},
            {"format", ingestFormatName(options.format)},
        };
        if (!ckpt.writeManifest(manifest, &error))
            DNASIM_FATAL("ingest: ", error);
    }

    TextTable table("ingest");
    table.setHeader(
        {"format", "reads", "skipped", "clusters", "bases"});
    table.addRow({ingestFormatName(options.format),
                  std::to_string(result.reads),
                  std::to_string(result.skipped),
                  std::to_string(result.clusters),
                  std::to_string(result.total_bases)});
    table.print(std::cout);
    std::cout << "wrote " << pool_out;
    if (!options.origins_path.empty())
        std::cout << " and " << options.origins_path;
    std::cout << "\n";
    return 0;
}

} // namespace dnasim
