/**
 * @file
 * Central registry for every environment variable the simulator reads.
 * Determinism contract: the environment is part of a run's inputs, so
 * all access goes through this one translation unit — every variable
 * carries a type, default and doc string, and `caba_cli --help-env`
 * prints the registry. caba-lint (tools/lint/) flags any direct getenv
 * call outside src/common/env.cc.
 *
 * Numbers are parsed with the strict rules of common/parse.h, the same
 * ones the command-line flags use. A value those rules reject (garbage,
 * overflow, out of range) is ignored: the accessor returns its fallback
 * and prints one stderr warning per process naming the variable.
 *
 * raw() reads the live environment: the sweep tests re-point CABA_JOBS
 * between Sweep constructions. Consumers that run on worker threads
 * (CABA_SCALE, CABA_AUDIT) cache the first read in a magic static at
 * the call site, because getenv during multithreaded phases is not
 * reliably safe against concurrent environment mutation.
 */
#ifndef CABA_COMMON_ENV_H
#define CABA_COMMON_ENV_H

#include <cstdio>
#include <vector>

namespace caba {
namespace env {

/** How a variable's raw string is interpreted at its point of use. */
enum class Type {
    Int,    ///< decimal integer
    Real,   ///< decimal floating point
    Str,    ///< free-form string (path, spec, comma list)
};

/** One registered variable: the full contract a user can rely on. */
struct Var
{
    const char *name;       ///< e.g. "CABA_SCALE"
    Type type;              ///< interpretation of the raw value
    const char *fallback;   ///< human-readable default shown in --help-env
    const char *doc;        ///< one-line description
};

/** Every variable the simulator consults, in display order. */
const std::vector<Var> &registry();

/**
 * Live raw value of registered variable @p name (nullptr when unset).
 * Panics on a name that is not in the registry — a read of an
 * undeclared variable is a contract violation, not a lookup miss.
 */
const char *raw(const char *name);

/** Parsed non-negative integer, or @p fallback when unset or rejected. */
int intOr(const char *name, int fallback);

/** Parsed positive integer, or @p fallback when unset or rejected. */
int positiveIntOr(const char *name, int fallback);

/** Raw string value, or @p fallback when unset. */
const char *strOr(const char *name, const char *fallback);

/** Parsed finite positive real, or @p fallback when unset or rejected. */
double positiveRealOr(const char *name, double fallback);

/**
 * Reports that @p value of variable @p name was rejected (@p want says
 * what is accepted) and that its default applies. Prints at most once
 * per variable and process. Used by the accessors above and by callers
 * that parse a Str variable themselves (CABA_AUDIT).
 */
void warnRejected(const char *name, const char *value, const char *want);

/** Prints the registry (name, type, default, doc) to @p out. */
void printHelp(std::FILE *out);

} // namespace env
} // namespace caba

#endif // CABA_COMMON_ENV_H
