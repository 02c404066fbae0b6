#pragma once
// WAL checkpoint + rotation: bounds crash-recovery time by live data
// instead of total write history.
//
// A checkpoint (format GCK2) persists the instance as three artifacts:
//
//   <path>                 main snapshot: catalog (table names + split
//                          points), each tablet's UNFLUSHED cells
//                          (memtable + frozen, versions and delete
//                          markers preserved), the logical clock, the
//                          covered WAL sequence, and the artifact epoch
//                          — one wire section (magic "GCK2" | len u64 |
//                          payload | crc32(payload), see codec.hpp),
//                          written tmp + rename.
//   <path>.manifest-<E>    a MANIFEST (see manifest.hpp): one
//                          VersionEdit per tablet describing its
//                          leveled file set (level, key range, seq,
//                          cell/byte counts per file).
//   <path>.files-<E>/f<id>.rf   every live RFile, serialized.
//
// Flushed data is therefore no longer re-encoded as raw cells: the
// files are persisted verbatim and the manifest replay reconstructs
// the exact leveled structure, so recovery is byte-identical including
// read-amplification shape, not merely cell-identical.
//
// Epoch discipline: each write_checkpoint() picks an epoch strictly
// above every artifact epoch present on disk, writes the new artifacts
// first, and only then renames the main snapshot into place (the
// atomic commit point) and rotates the WAL. A crash mid-write leaves
// the previous checkpoint's artifacts untouched; stale epochs are
// garbage-collected only after the rename succeeds. Recovery loads the
// main snapshot (CRC), replays the manifest named by its epoch
// (torn-tail tolerant), reloads the RFiles, then replays the WAL tail
// filtered by sequence number — idempotent even when the crash landed
// between rename and rotation.
//
// Table configs (iterator settings, LSM knobs) are code, not data:
// recovery recreates tables through the caller's TableConfigProvider,
// exactly as WAL-only recovery does.
//
// Caller contract: quiesce writers while checkpointing — the snapshot
// is per-tablet consistent but not cross-tablet atomic under
// concurrent writes.

#include <cstdint>
#include <string>

#include "nosql/instance.hpp"

namespace graphulo::nosql {

/// Outcome of write_checkpoint().
struct CheckpointStats {
  std::size_t tables = 0;
  std::size_t cells = 0;          ///< unflushed + file-resident cells captured
  std::size_t files = 0;          ///< RFiles persisted alongside the manifest
  std::uint64_t covers_seq = 0;   ///< WAL records with seq < this are covered
};

/// Outcome of recover_instance().
struct RecoveryStats {
  bool checkpoint_loaded = false;
  std::size_t tables_restored = 0;    ///< from the checkpoint
  std::size_t cells_restored = 0;     ///< from the checkpoint
  std::size_t files_restored = 0;     ///< RFiles reloaded via the manifest
  std::size_t records_replayed = 0;   ///< from the WAL tail
};

/// Snapshots `db` into `checkpoint_path` (+ manifest and file
/// artifacts; see the header comment), then rotates the attached WAL
/// so the log is truncated to empty. Requires an attached WAL (the
/// covered sequence comes from it). Transient I/O faults are retried
/// per the instance's retry policy; a retry rewrites the new epoch's
/// artifacts wholesale, never the previous checkpoint's. Throws on
/// unrecoverable failure — the WAL is only rotated after the main
/// snapshot is durably in place.
CheckpointStats write_checkpoint(Instance& db,
                                 const std::string& checkpoint_path);

/// Rebuilds `db` (normally fresh) from `checkpoint_path` +
/// `wal_path`: loads the main snapshot when present and valid (a
/// foreign magic, a length longer than the file, a CRC mismatch or a
/// malformed payload each reject it, and recovery falls back to the
/// full log),
/// restores the catalog, replays the manifest to reload every RFile
/// into its recorded level, restores unflushed cells, then replays the
/// WAL tail (records at or past the checkpoint's covered sequence; the
/// full log when no checkpoint loaded). `config_for` supplies table
/// configs at creation, as in recover_from_wal. The WAL is NOT
/// attached to `db`.
RecoveryStats recover_instance(Instance& db,
                               const std::string& checkpoint_path,
                               const std::string& wal_path,
                               const TableConfigProvider& config_for = {});

}  // namespace graphulo::nosql
