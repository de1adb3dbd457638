#ifndef NUCHASE_SERVER_PROGRAM_CACHE_H_
#define NUCHASE_SERVER_PROGRAM_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "api/program.h"
#include "util/status.h"

namespace nuchase {
namespace server {

/// An LRU cache of parsed api::Programs keyed by the content hash of
/// their rule text — the parse-once half of the serving story: the
/// first request carrying a given program pays Program::Parse (parse,
/// validate, classify, join-plan, lint), every subsequent request with
/// byte-identical text gets the frozen shared artifact back for the
/// price of a hash and a text compare.
///
/// Hash equality is a filter, not an identity proof: every hit compares
/// the stored text byte for byte, so a 64-bit collision degrades to a
/// miss instead of serving the wrong program. Parse failures are never
/// cached — malformed text is rejected per request (errors are cheap to
/// re-derive and must not occupy capacity).
///
/// Thread-safe: GetOrParse may be called from any number of scheduler
/// workers at once. Concurrent first submissions of the same text may
/// both parse (the parse runs outside the lock so a slow program cannot
/// serialize the whole server behind the cache mutex); the first insert
/// wins and the loser's artifact is dropped — correctness is unaffected
/// because Programs parsed from identical text are interchangeable.
class ProgramCache {
 public:
  /// A cache holding at most `capacity` parsed programs (>= 1).
  explicit ProgramCache(std::size_t capacity);

  struct Lookup {
    api::Program program;
    bool hit = false;  ///< Served from the cache (no parse happened).
  };

  /// The cached program for `rules`, parsing and inserting on miss.
  /// Non-OK exactly when api::Program::Parse rejects the text.
  util::StatusOr<Lookup> GetOrParse(const std::string& rules);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t parses = 0;  ///< Successful parses (misses that stuck).
    std::size_t entries = 0;
  };

  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string text;
    api::Program program;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used; eviction pops the back.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace server
}  // namespace nuchase

#endif  // NUCHASE_SERVER_PROGRAM_CACHE_H_
