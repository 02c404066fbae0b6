#pragma once
// WAL checkpoint + rotation: bounds crash-recovery time by live data
// instead of total write history.
//
// A checkpoint (format GCK3) is two artifacts:
//
//   <path>                 the main section: one wire section (magic
//                          "GCK3" | len u64 | payload | crc32(payload),
//                          see codec.hpp), written tmp + rename.
//   <path>.files-<E>/f<id>.rf   every live RFile, serialized.
//
// Payload (little-endian, encoded through nosql::wire):
//   clock i64 | covers_seq u64 | epoch E u64 | table count u64 |
//   per table, in name order:
//     name | split count u64 | split rows |
//     tablet count u64 | per tablet, in extent order:
//       extent start | file count u64 |
//       per live file: file id u64 | level u64 | seq u64
//     cell count u64 | the table's UNFLUSHED cells (memtable + frozen,
//       versions and delete markers preserved; wire::put_cell)
// (strings are u32-length-prefixed).
//
// Flushed data is never re-encoded as raw cells: the files are
// persisted verbatim, and recovery rebuilds each file's metadata
// (cell count, byte footprint, first and last key) from the reloaded
// RFile with FileMeta::describe, so the leveled structure comes back
// file for file. The section's CRC covers every file set: any damage
// to it rejects the checkpoint whole, and recovery falls back to the
// WAL, which the rotation has cut to the tail written since. A
// damaged RFile drops that one file, loudly. Only GCK3 is
// read: a main file with any other magic is rejected like a damaged
// one.
//
// Epoch discipline: each write_checkpoint() picks an epoch strictly
// above every files directory present on disk, writes the RFiles and
// the section to `<path>.tmp` first, and only then renames the section
// into place (the atomic commit point) and rotates the WAL. A crash
// mid-write leaves the previous checkpoint's artifacts untouched;
// stale epochs are garbage-collected only after the rename succeeds.
// Recovery loads the section (CRC), then per table recreates the table
// and its splits, reloads each tablet's RFiles into their recorded
// levels, and restores the unflushed cells; then it sets the clock and
// replays the WAL tail filtered by sequence number — idempotent even
// when the crash landed between rename and rotation.
//
// Durability: artifacts are flushed, not fsync'd. A checkpoint
// survives a process crash, but not necessarily a power loss.
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
  std::size_t files = 0;          ///< RFiles persisted beside the section
  std::uint64_t covers_seq = 0;   ///< WAL records with seq < this are covered
};

/// Outcome of recover_instance().
struct RecoveryStats {
  bool checkpoint_loaded = false;
  std::size_t tables_restored = 0;    ///< from the checkpoint
  std::size_t cells_restored = 0;     ///< from the checkpoint
  std::size_t files_restored = 0;     ///< RFiles reloaded from the files dir
  std::size_t records_replayed = 0;   ///< from the WAL tail
};

/// Snapshots `db` into `checkpoint_path` (+ the files directory; see
/// the header comment), then rotates the attached WAL so the log is
/// truncated to empty. Requires an attached WAL (the covered sequence
/// comes from it). Transient I/O faults are retried per the instance's
/// retry policy; a retry rewrites the new epoch's artifacts wholesale,
/// never the previous checkpoint's. Throws on unrecoverable failure —
/// the WAL is only rotated after the main section is renamed into
/// place.
CheckpointStats write_checkpoint(Instance& db,
                                 const std::string& checkpoint_path);

/// Rebuilds `db` (normally fresh) from `checkpoint_path` +
/// `wal_path`: loads the main section when present and valid (a
/// foreign magic, a length longer than the file, a CRC mismatch or a
/// malformed payload each reject it, and recovery falls back to the
/// full log), restores the catalog, reloads every tablet's RFiles into
/// their recorded levels, restores unflushed cells, then replays the
/// WAL tail (records at or past the checkpoint's covered sequence; the
/// full log when no checkpoint loaded). `config_for` supplies table
/// configs at creation, as in recover_from_wal. The WAL is NOT
/// attached to `db`.
RecoveryStats recover_instance(Instance& db,
                               const std::string& checkpoint_path,
                               const std::string& wal_path,
                               const TableConfigProvider& config_for = {});

}  // namespace graphulo::nosql
