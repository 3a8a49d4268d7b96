// RunManifest: a Merkle-style hash chain over one alignment run —
// configuration, query stream, and verdicts — emitted by Sofya::AlignAll.
//
// Each entry carries a content digest; the chain value of entry i hashes
// (chain of i-1, kind, label, digest), so the final `root` commits to the
// whole run in order: two runs with equal roots produced byte-equal
// configurations, byte-equal per-relation verdicts in the same order, and
// the same set of endpoint interactions. A replayed cassette run is
// *audited* by comparing its root against the recorded run's root; when
// they differ, FirstDivergence() names the first entry that broke.
//
// The serialized form is a line-oriented text file (stable, diffable,
// checked into CI next to its cassette):
//
//   sofya-run-manifest v1
//   config aligner <digest16> <chain16>
//   verdict <relation-iri> <digest16> <chain16>
//   ...
//   queries candidate <digest16> <chain16>
//   queries reference <digest16> <chain16>
//   root <chain16>
//
// Parse() recomputes the chain and rejects any file whose chain or root
// does not verify — a manifest cannot be hand-edited into validity.

#ifndef SOFYA_CORE_RUN_MANIFEST_H_
#define SOFYA_CORE_RUN_MANIFEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "align/relation_aligner.h"
#include "endpoint/cassette.h"
#include "util/status.h"

namespace sofya {

/// One link of the chain.
struct RunManifestEntry {
  std::string kind;    ///< "config", "verdict", or "queries".
  std::string label;   ///< e.g. "aligner", a relation IRI, "candidate".
  std::string digest;  ///< 16-hex content digest of the entry.
  std::string chain;   ///< 16-hex chain value *after* this entry.
};

/// The audited-run manifest. Build with Append() (which extends the chain),
/// or load a serialized one with Parse().
class RunManifest {
 public:
  /// Extends the chain with one entry. `label` must be space- and
  /// newline-free (IRIs and the fixed labels are).
  void Append(std::string kind, std::string label, std::string digest);

  const std::vector<RunManifestEntry>& entries() const { return entries_; }

  /// The chain value after the last entry (the run's identity).
  const std::string& root() const { return root_; }

  /// Line-oriented text form (see file comment).
  std::string Serialize() const;

  /// Parses and *verifies*: recomputes every chain value and the root,
  /// returning ParseError on any malformed line or chain mismatch.
  static StatusOr<RunManifest> Parse(const std::string& text);

 private:
  std::vector<RunManifestEntry> entries_;
  std::string root_ = std::string(16, '0');
};

/// Where two manifests first disagree.
struct ManifestDivergence {
  size_t index;         ///< Entry index (min(size) when one is a prefix).
  std::string what;     ///< Human-readable description of the difference.
};

/// First diverging entry between two manifests; nullopt when their roots
/// (and hence their full chains) agree.
std::optional<ManifestDivergence> FirstDivergence(const RunManifest& a,
                                                  const RunManifest& b);

/// 16-hex rendering of a 64-bit hash (shared by all digest helpers).
std::string HashToHex(uint64_t value);

/// Digest of the alignment configuration: every AlignerOptions field that
/// determines verdicts. Execution-shape knobs (thread count, planner) are
/// deliberately excluded — the pipeline is bit-identical across them, and
/// the manifest must be too.
std::string DigestAlignerConfig(const AlignerOptions& options);

/// Digest of one relation's alignment outcome: the reference relation,
/// every verdict's decision-relevant fields, and the per-relation query
/// counts. Fleet-level quantities (cache hits, simulated latency) are
/// excluded — they vary with thread count by design.
std::string DigestAlignmentResult(const AlignmentResult& result);

/// Builds the manifest for one AlignAll invocation: config, then one
/// verdict entry per result in input order, then the two query-stream
/// digests (empty digests when no journal was attached).
RunManifest BuildRunManifest(const AlignerOptions& options,
                             const std::vector<const AlignmentResult*>& results,
                             const CassetteJournal* candidate_journal,
                             const CassetteJournal* reference_journal);

}  // namespace sofya

#endif  // SOFYA_CORE_RUN_MANIFEST_H_
