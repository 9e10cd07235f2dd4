/**
 * @file
 * Crash-safe file publication: write-temp, fsync, rename.
 *
 * Every sink the simulator leaves behind (stats JSON/CSV, timelines,
 * traces, BENCH_*.json, checkpoints) is consumed by other tools --
 * ladm-report, --resume, scripts reading the bench sinks. A process
 * killed halfway through a bare ofstream write leaves a torn file those
 * tools then choke on. atomicWriteFile() instead builds the content in
 * memory, writes it to `<path>.tmp.<pid>`, fsyncs, and rename(2)s into
 * place: readers observe either the complete old file or the complete
 * new one, never a prefix.
 *
 * "-" is NOT handled here; stdout streaming stays the caller's business.
 */

#ifndef LADM_COMMON_ATOMIC_FILE_HH
#define LADM_COMMON_ATOMIC_FILE_HH

#include <functional>
#include <iosfwd>
#include <string>

namespace ladm
{

/**
 * Atomically replace @p path with the bytes @p fill writes to the
 * provided stream. Returns false (with a warning naming the path and
 * errno) if the temp file cannot be created, written, or renamed; the
 * destination is left untouched in that case.
 */
bool atomicWriteFile(const std::string &path,
                     const std::function<void(std::ostream &)> &fill);

/** Atomically replace @p path with @p content (byte string form). */
bool atomicWriteBytes(const std::string &path, const std::string &content);

} // namespace ladm

#endif // LADM_COMMON_ATOMIC_FILE_HH
