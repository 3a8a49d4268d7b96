// Umbrella header: the full public API of the SOFYA library.
//
// Quick start:
//
//   #include "core/sofya.h"
//
//   sofya::SynthWorld world =
//       *sofya::GenerateWorld(sofya::MoviesWorldSpec());
//   sofya::Sofya sofya(world.kb1.get(), world.kb2.get(), &world.links);
//   auto result = sofya.Align("http://kb2.sofya.org/ontology/directedBy");
//
// See examples/ for complete programs and DESIGN.md for the module map.

#ifndef SOFYA_CORE_SOFYA_H_
#define SOFYA_CORE_SOFYA_H_

#include "align/candidate_source.h"
#include "align/on_the_fly.h"
#include "align/relation_aligner.h"
#include "core/facade.h"
#include "endpoint/caching_endpoint.h"
#include "endpoint/endpoint.h"
#include "endpoint/http_sparql_endpoint.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/paged_select.h"
#include "endpoint/query_forms.h"
#include "endpoint/retry_policy.h"
#include "endpoint/retrying_endpoint.h"
#include "endpoint/select_text.h"
#include "endpoint/sparql_server.h"
#include "endpoint/throttled_endpoint.h"
#include "endpoint/tracking_endpoint.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table1.h"
#include "mining/confidence.h"
#include "mining/evidence.h"
#include "mining/rule.h"
#include "rdf/dictionary.h"
#include "rdf/knowledge_base.h"
#include "rdf/namespaces.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/triple_store.h"
#include "sameas/sameas_index.h"
#include "sameas/translator.h"
#include "sampling/sampler_options.h"
#include "sampling/simple_sampler.h"
#include "sampling/unbiased_sampler.h"
#include "similarity/literal_matcher.h"
#include "similarity/string_metrics.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/http_transport.h"
#include "net/loopback_transport.h"
#include "net/socket_transport.h"
#include "sparql/engine.h"
#include "sparql/parser.h"
#include "sparql/planner.h"
#include "sparql/query.h"
#include "sparql/results_json.h"
#include "synth/ground_truth.h"
#include "synth/presets.h"
#include "synth/spec.h"
#include "synth/world_generator.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#endif  // SOFYA_CORE_SOFYA_H_
