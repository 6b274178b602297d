// Umbrella header: the stable public surface of the grepair library.
//
// Downstream users include this one header and get:
//   * the codec API (GraphCodec, CompressedRep, CodecOptions) over
//     gRePair, created by name ("grepair", "sharded:grepair") through
//     CodecRegistry,
//   * the sharded parallel-compression layer (PartitionGraph,
//     ParallelCompressor, the "sharded:grepair" codec) and the tagged
//     container framing,
//   * remote shard serving (api::OpenRemote over src/serve/'s
//     multi-corpus ShardServer, connection pool and SSD shard tier),
//   * CompressedGraph, the queryable gRePair representation,
//   * hypergraph + alphabet types and text graph IO,
//   * the deterministic dataset generators used by the benches.
//
//   #include "src/api/grepair_api.h"
//
//   auto gg = grepair::ErdosRenyi(1000, 4000, /*seed=*/1);
//   auto codec = grepair::api::CodecRegistry::Create("grepair");
//   auto rep = codec.value()->Compress(gg.graph, gg.alphabet);
//   rep.value()->ByteSize();
//
// Internal headers under src/ remain includable but are not covered by
// any stability promise; this file is.

#ifndef GREPAIR_API_GREPAIR_API_H_
#define GREPAIR_API_GREPAIR_API_H_

#include "src/api/codec_registry.h"
#include "src/api/container.h"
#include "src/api/graph_codec.h"
#include "src/api/remote.h"
#include "src/datasets/generators.h"
#include "src/encoding/grammar_coder.h"
#include "src/graph/graph_io.h"
#include "src/graph/hypergraph.h"
#include "src/query/compressed_graph.h"
#include "src/shard/parallel_compressor.h"
#include "src/shard/partitioner.h"
#include "src/shard/sharded_codec.h"
#include "src/util/status.h"

#endif  // GREPAIR_API_GREPAIR_API_H_
