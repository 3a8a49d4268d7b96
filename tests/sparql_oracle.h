// The brute-force SPARQL oracle shared by the engine and planner tests:
// a naive evaluator that defines the result of a query, independent of any
// planner's clause order or the streaming pipeline.

#ifndef SOFYA_TESTS_SPARQL_ORACLE_H_
#define SOFYA_TESTS_SPARQL_ORACLE_H_

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "sparql/query.h"

namespace sofya {

using Row = std::vector<TermId>;

/// Reference evaluator with the pre-streaming semantics: materialize every
/// join level in source clause order, final all-filters-applicable pass,
/// projection, DISTINCT, OFFSET, LIMIT. Deliberately naive — it is the spec
/// the engine's pipeline and every planner's clause order must match.
inline ResultSet BruteForce(const TripleStore& store,
                            const SelectQuery& query,
                            const Dictionary* dict = nullptr) {
  const size_t num_vars = query.num_vars();
  std::vector<Row> rows;
  rows.emplace_back(num_vars, kNullTermId);

  for (const PatternClause& clause : query.clauses()) {
    std::vector<Row> next;
    for (const Row& row : rows) {
      auto resolve = [&](const NodeRef& ref) -> TermId {
        return ref.is_var() ? row[ref.var()] : ref.term();
      };
      TriplePattern pattern(resolve(clause.subject),
                            resolve(clause.predicate),
                            resolve(clause.object));
      for (const Triple& t : store.Match(pattern)) {
        Row extended = row;
        auto bind = [&](const NodeRef& ref, TermId value) {
          if (!ref.is_var()) return ref.term() == value;
          TermId& slot = extended[ref.var()];
          if (slot == kNullTermId) {
            slot = value;
            return true;
          }
          return slot == value;
        };
        if (!bind(clause.subject, t.subject)) continue;
        if (!bind(clause.predicate, t.predicate)) continue;
        if (!bind(clause.object, t.object)) continue;
        next.push_back(std::move(extended));
      }
    }
    rows = std::move(next);
  }

  auto applicable = [&](const FilterExpr& f, const Row& row) {
    if (row[f.lhs] == kNullTermId) return false;
    if ((f.kind == FilterExpr::Kind::kVarEqVar ||
         f.kind == FilterExpr::Kind::kVarNeqVar) &&
        row[f.rhs_var] == kNullTermId) {
      return false;
    }
    return true;
  };
  auto passes = [&](const FilterExpr& f, const Row& row) {
    switch (f.kind) {
      case FilterExpr::Kind::kVarEqVar:
        return row[f.lhs] == row[f.rhs_var];
      case FilterExpr::Kind::kVarNeqVar:
        return row[f.lhs] != row[f.rhs_var];
      case FilterExpr::Kind::kVarEqTerm:
        return row[f.lhs] == f.rhs_term;
      case FilterExpr::Kind::kVarNeqTerm:
        return row[f.lhs] != f.rhs_term;
      case FilterExpr::Kind::kIsIri:
        return dict == nullptr || !dict->Contains(row[f.lhs]) ||
               dict->Decode(row[f.lhs]).is_iri();
      case FilterExpr::Kind::kIsLiteral:
        return dict == nullptr || !dict->Contains(row[f.lhs]) ||
               dict->Decode(row[f.lhs]).is_literal();
    }
    return true;
  };
  std::vector<Row> filtered;
  for (Row& row : rows) {
    bool keep = true;
    for (const FilterExpr& f : query.filters()) {
      if (!applicable(f, row) || !passes(f, row)) {
        keep = false;  // Unbound filter variable: SPARQL error => row drops.
        break;
      }
    }
    if (keep) filtered.push_back(std::move(row));
  }

  std::vector<VarId> projection = query.projection();
  if (projection.empty()) {
    for (VarId v = 0; v < static_cast<VarId>(num_vars); ++v) {
      projection.push_back(v);
    }
  }
  ResultSet result;
  for (VarId v : projection) result.var_names.push_back(query.var_name(v));
  std::vector<Row> projected;
  for (const Row& row : filtered) {
    Row out;
    for (VarId v : projection) out.push_back(row[v]);
    projected.push_back(std::move(out));
  }
  if (query.distinct()) {
    std::vector<Row> unique;
    std::set<Row> seen;
    for (Row& row : projected) {
      if (seen.insert(row).second) unique.push_back(std::move(row));
    }
    projected = std::move(unique);
  }
  const uint64_t offset = query.offset();
  const uint64_t limit = query.limit();
  if (offset >= projected.size()) {
    projected.clear();
  } else {
    projected.erase(projected.begin(),
                    projected.begin() + static_cast<ptrdiff_t>(offset));
    if (limit != kNoLimit && projected.size() > limit) projected.resize(limit);
  }
  result.rows = std::move(projected);
  return result;
}

/// Rows as a bag: equality ignores enumeration order.
inline std::multiset<Row> AsBag(const std::vector<Row>& rows) {
  return {rows.begin(), rows.end()};
}

/// The planner arms parity tests hold against the oracle: DP, greedy
/// (`dp_max_clauses = 0`), and DP with adaptive re-planning triggered
/// eagerly (any stage above its estimate) so re-plans actually happen on
/// small corpora.
inline std::vector<std::pair<std::string, Engine::Options>> PlannerArms() {
  Engine::Options dp;
  Engine::Options greedy;
  greedy.planner.dp_max_clauses = 0;
  Engine::Options adaptive;
  adaptive.adaptive = true;
  adaptive.adaptive_replan_factor = 1.0;
  adaptive.adaptive_min_rows = 1;
  return {{"dp", dp}, {"greedy", greedy}, {"adaptive", adaptive}};
}

}  // namespace sofya

#endif  // SOFYA_TESTS_SPARQL_ORACLE_H_
