/**
 * @file
 * Reader/writer for the MSR Cambridge block-trace CSV format.
 *
 * Lines look like:
 *
 *   128166372003061629,hm,1,Read,383496192,32768,1331
 *
 * with fields: Windows-filetime timestamp (100 ns ticks since 1601),
 * hostname, disk number, "Read"/"Write", byte offset, byte length,
 * response time. logseek normalizes timestamps to microseconds from
 * the first record and byte offsets/lengths to 512-byte sectors
 * (offsets are rounded down, lengths rounded up, matching how the
 * traces were consumed in the paper's simple sector model).
 *
 * The tryParse* entry points return typed Status errors so one
 * corrupt trace degrades a single workload instead of a batch; the
 * historical parse* names are thin wrappers that throw FatalError
 * on a non-OK status.
 */

#ifndef LOGSEEK_TRACE_MSR_CSV_H
#define LOGSEEK_TRACE_MSR_CSV_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/trace.h"
#include "util/status.h"

namespace logseek::trace
{

/** Options controlling MSR CSV parsing. */
struct MsrCsvOptions
{
    /**
     * Only keep records for this disk number; -1 keeps all disks
     * (their LBAs share one address space, as in a single volume).
     */
    int diskFilter = -1;

    /** Skip malformed lines instead of failing. */
    bool skipMalformed = false;

    /**
     * Error budget in skipMalformed mode: the maximum number of
     * malformed lines tolerated before the whole trace is rejected
     * with ResourceExhausted. A trace that is mostly garbage should
     * not silently shrink to its few parseable lines, and one with
     * no parseable line at all is DataLoss whatever the budget.
     */
    std::uint64_t errorBudget = 1000;

    /**
     * Cap on per-line warn() emissions for skipped lines; once
     * exceeded, skipping continues silently and a single summary
     * warning is emitted at the end. Keeps a corrupt multi-million
     * line trace from flooding stderr.
     */
    std::uint64_t maxWarnings = 10;
};

/** Per-parse accounting returned alongside the trace. */
struct MsrParseSummary
{
    /** Non-blank lines examined. */
    std::uint64_t lines = 0;

    /** Records appended to the trace. */
    std::uint64_t parsed = 0;

    /** Malformed lines skipped (skipMalformed mode only). */
    std::uint64_t skipped = 0;

    /** Lines dropped by the disk filter. */
    std::uint64_t filtered = 0;

    /**
     * Records whose timestamp preceded the first record's (clock
     * went backwards); their relative timestamp is clamped to 0.
     */
    std::uint64_t timestampUnderflows = 0;
};

/** A parsed trace plus its parse accounting. */
struct MsrParseResult
{
    Trace trace;
    MsrParseSummary summary;
};

/**
 * Parse an MSR-format CSV stream into a Trace.
 *
 * @param in Input stream positioned at the first line.
 * @param name Workload name to give the resulting trace.
 * @param options Parse options.
 * @return The parsed trace and summary, or a typed error:
 *         DataLoss for a malformed line (strict mode), for a
 *         skipMalformed parse that skipped lines and kept none, or
 *         for a stream I/O failure; ResourceExhausted when
 *         skipMalformed skips more than options.errorBudget lines.
 */
StatusOr<MsrParseResult>
tryParseMsrCsv(std::istream &in, const std::string &name,
               const MsrCsvOptions &options = {});

/**
 * Parse an MSR-format CSV file. The file is opened in binary mode
 * (the parser strips CR itself, so CRLF traces parse identically on
 * every platform). Returns NotFound with strerror detail when the
 * file cannot be opened.
 */
StatusOr<MsrParseResult>
tryParseMsrCsvFile(const std::string &path, const std::string &name,
                   const MsrCsvOptions &options = {});

/**
 * Throwing wrapper around tryParseMsrCsv.
 * @throws FatalError on any non-OK parse status.
 */
Trace parseMsrCsv(std::istream &in, const std::string &name,
                  const MsrCsvOptions &options = {});

/** Throwing wrapper around tryParseMsrCsvFile. */
Trace parseMsrCsvFile(const std::string &path, const std::string &name,
                      const MsrCsvOptions &options = {});

/**
 * Write a trace in MSR CSV format. Timestamps are emitted as
 * filetime ticks relative to an arbitrary epoch; a round trip
 * through parseMsrCsv reproduces the trace's records exactly.
 */
void writeMsrCsv(std::ostream &out, const Trace &trace,
                 const std::string &hostname = "logseek",
                 int disk_number = 0);

} // namespace logseek::trace

#endif // LOGSEEK_TRACE_MSR_CSV_H
