#include "inputs.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "gen/corpora.hpp"
#include "xml/serializer.hpp"

namespace perfbench {

namespace {

constexpr const char* kNames[] = {"ingest", "serve_cold"};

// Point lookups drive from an indexed column (article.title or
// name.lastname) and touch a handful of rows.  Analytic queries scan a
// whole entity table: '//' and ancestor paths, counts, and predicates on
// the unindexed name.firstname.  '#' is replaced by a vocabulary value.
// Paths such as /article/author/name[lastname = #] are left out: the
// planner drives them from the root today, which puts them in a third
// latency mode between the two classes.
//
// Every pattern has two holes.  A value is three of the generator's 19
// words, so a one-hole pattern has only 19^3 = 6859 texts, fewer than a
// fast run asks for; two holes give 19^6.
constexpr const char* kPoint[] = {
    "/article[title = #]/author/name[firstname != #]/lastname",
    "/article[title = #][title != #]/author",
    "count(//name[lastname = #][firstname != #])",
    "//name[lastname = #][firstname = #]/firstname",
};
constexpr const char* kAnalytic[] = {
    "/article//name[firstname = #][lastname != #]/lastname",
    "count(//author[name/firstname = #][name/lastname != #])",
    "//name[ancestor::article][firstname = #][lastname != #]",
    "count(//name[firstname = #][lastname != #])",
};
// The stream is a sequence of blocks of 20 queries, each holding every
// point pattern kPointRepeat times and every analytic one once in a seeded
// order, so the mix is 80/20 in every window of a run at any speed.
constexpr std::size_t kPointRepeat = 4;

std::string fill(const char* pattern, const std::vector<std::string>& values) {
    std::string out;
    std::size_t v = 0;
    for (const char* p = pattern; *p != '\0'; ++p) {
        if (*p == '#')
            out += "'" + values[v++] + "'";
        else
            out += *p;
    }
    return out;
}

std::size_t holes(const char* pattern) {
    return static_cast<std::size_t>(
        std::count(pattern, pattern + std::char_traits<char>::length(pattern), '#'));
}

void collect_words(const xr::xml::Element& e, std::set<std::string>& out) {
    if (e.name() == "title" || e.name() == "firstname" ||
        e.name() == "lastname") {
        std::istringstream in(e.text());
        for (std::string w; in >> w;) out.insert(w);
    }
    for (const auto* child : e.child_elements()) collect_words(*child, out);
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
    for (std::size_t i = 0; i < std::size(kNames); ++i) {
        if (name == kNames[i]) {
            *out = static_cast<Workload>(i);
            return true;
        }
    }
    return false;
}

Shape shape_of(Workload w) {
    Shape s;
    switch (w) {
        case Workload::kIngest:
            s.base_docs = 500;
            s.setups = 11;  // a short set-up: more repeats for its median
            s.window_s = 0;
            s.checkpoint_every = 32;
            s.episode_docs = 256;
            s.replay_docs = 32;
            break;
        case Workload::kServeCold:
            s.base_docs = 2000;
            s.clients = 2;
            s.workers = 2;
            break;
    }
    return s;
}

Corpus make_docs(std::uint64_t seed, std::size_t first, std::size_t count) {
    // bibliography_corpus seeds document i with (base + i); spacing run
    // seeds a million apart keeps the document sequences of two seeds
    // disjoint.
    constexpr std::size_t kElementsPerDoc = 200;
    Corpus c;
    c.docs = xr::gen::bibliography_corpus(count, kElementsPerDoc,
                                          1 + seed * 1000003ULL + first);
    c.texts.reserve(count);
    for (const auto& doc : c.docs) {
        c.texts.push_back(xr::xml::serialize(*doc));
        c.bytes += c.texts.back().size();
    }
    return c;
}

std::vector<std::string> vocabulary(const Corpus& corpus) {
    std::set<std::string> words;
    for (const auto& doc : corpus.docs)
        if (doc->root() != nullptr) collect_words(*doc->root(), words);
    return {words.begin(), words.end()};
}

QueryStream::QueryStream(std::uint64_t seed, std::vector<std::string> words)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 0x51ed), words_(std::move(words)) {}

std::string QueryStream::value() {
    // Generated text nodes hold three vocabulary words.
    std::string v;
    for (int i = 0; i < 3; ++i) {
        if (i != 0) v += ' ';
        v += words_[rng_.below(words_.size())];
    }
    return v;
}

std::string QueryStream::next() {
    if (block_.empty()) {
        for (std::size_t r = 0; r < kPointRepeat; ++r)
            block_.insert(block_.end(), std::begin(kPoint), std::end(kPoint));
        block_.insert(block_.end(), std::begin(kAnalytic), std::end(kAnalytic));
        for (std::size_t i = block_.size(); i > 1; --i)  // Fisher-Yates
            std::swap(block_[i - 1], block_[rng_.below(i)]);
    }
    const char* pattern = block_.back();
    block_.pop_back();
    for (;;) {
        std::vector<std::string> values;
        for (std::size_t i = 0; i < holes(pattern); ++i)
            values.push_back(value());
        std::string text = fill(pattern, values);
        if (seen_.insert(text).second) return text;
    }
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

}  // namespace perfbench
