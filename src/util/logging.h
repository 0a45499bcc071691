/**
 * @file
 * Minimal status/error reporting in the gem5 spirit.
 *
 * fatal() terminates because of a user error (bad configuration or
 * arguments); panic() terminates because of an internal logseek bug.
 * inform()/warn() print status without stopping the program.
 */

#ifndef LOGSEEK_UTIL_LOGGING_H
#define LOGSEEK_UTIL_LOGGING_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace logseek
{

/** Thrown by fatal(): a user-correctable configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Print a warning message to stderr. */
void warn(const std::string &msg);

/** Report a user error; throws FatalError. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal bug; throws PanicError. */
[[noreturn]] void panic(const std::string &msg);

/**
 * Panic if a condition holds. Used for internal invariants that
 * must survive release builds (unlike assert()).
 *
 * The message is a string literal, so a check that passes costs a
 * branch and nothing else; a std::string parameter would build the
 * message, and heap-allocate it past 15 characters, on every call.
 * A check whose message has to be built is written
 * `if (cond) panic(...)`, so only a failing check builds it.
 */
inline void
panicIf(bool condition, const char *msg)
{
    if (condition)
        panic(msg);
}

} // namespace logseek

#endif // LOGSEEK_UTIL_LOGGING_H
