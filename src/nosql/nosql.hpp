#pragma once
// Umbrella header for the NoSQL substrate: the in-process Accumulo-model
// store (sorted cells, LSM tablets, server-side iterator stacks, batch
// clients) that the Graphulo core executes GraphBLAS kernels against.

#include "nosql/admission.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/block_cache.hpp"
#include "nosql/checkpoint.hpp"
#include "nosql/codec.hpp"
#include "nosql/combiner.hpp"
#include "nosql/compaction_scheduler.hpp"
#include "nosql/filter_iterators.hpp"
#include "nosql/instance.hpp"
#include "nosql/iterator.hpp"
#include "nosql/key.hpp"
#include "nosql/memtable.hpp"
#include "nosql/merge_iterator.hpp"
#include "nosql/mutation.hpp"
#include "nosql/rfile.hpp"
#include "nosql/scanner.hpp"
#include "nosql/snapshot.hpp"
#include "nosql/table_config.hpp"
#include "nosql/tablet.hpp"
#include "nosql/tablet_server.hpp"
#include "nosql/version_set.hpp"
#include "nosql/visibility.hpp"
#include "nosql/wal.hpp"
#include "nosql/wal_options.hpp"
