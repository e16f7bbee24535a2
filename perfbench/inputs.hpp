// Seeded inputs of the xmlrel benchmark: document corpora, path-query
// streams and the documents ingest writes.
//
// Everything here is a pure function of (workload, seed).  Documents come
// from gen::bibliography_corpus over gen::paper_dtd and reach the program
// only as serialized XML text; queries reach it only as path-query text.
// The DOMs the generator built are kept as the oracle's source documents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "xml/dom.hpp"

namespace perfbench {

enum class Workload { kIngest, kServeCold };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);

/// Fixed shape of one workload (no knob is read from the environment).
struct Shape {
    std::size_t base_docs = 0;        ///< bulk-loaded during setup
    std::size_t clients = 0;          ///< closed-loop reader threads
    std::size_t workers = 0;          ///< QueryService worker threads
    std::size_t checkpoint_every = 0; ///< docs between checkpoints (0: none)
    /// ingest writes in episodes of this many documents, each on a fresh
    /// set-up, so every run writes the same database trajectory however
    /// fast it goes.
    std::size_t episode_docs = 0;
    /// Written after the run past a final checkpoint, for the reopen.
    std::size_t replay_docs = 0;
    std::size_t setups = 7;           ///< setups per run; setup_s is the median
    /// Throughput and latency are medians over windows of this many
    /// seconds (0: the whole run, for ingest, whose writes are too few
    /// per second for a p99 per window).
    double window_s = 1;
};
Shape shape_of(Workload w);

/// Serialized documents plus the generator's own DOMs of the same texts.
struct Corpus {
    std::vector<std::string> texts;
    std::vector<std::unique_ptr<xr::xml::Document>> docs;
    std::size_t bytes = 0;
};

/// Documents [first, first + count) of the run's document sequence.  The
/// base corpus is [0, base_docs); ingest continues from base_docs, so
/// every document of a run is distinct.
Corpus make_docs(std::uint64_t seed, std::size_t first, std::size_t count);

/// Distinct path queries, about 80% point lookups on indexed columns and
/// 20% analytic scans.  Deterministic in the seed; never repeats a text.
class QueryStream {
public:
    /// `words` is the generator vocabulary, harvested from the corpus.
    QueryStream(std::uint64_t seed, std::vector<std::string> words);
    std::string next();

private:
    xr::SplitMix64 rng_;
    std::vector<std::string> words_;
    std::unordered_set<std::string> seen_;
    std::vector<const char*> block_;  ///< patterns left in this block
    std::string value();
};

/// Every distinct word of the corpus's title/firstname/lastname text.
std::vector<std::string> vocabulary(const Corpus& corpus);

/// FNV-1a over bytes; the determinism check digests inputs with it.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ULL);

}  // namespace perfbench
