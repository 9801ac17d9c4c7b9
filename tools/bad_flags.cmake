# A bad flag value is bad input, not a crash: lipsctl exits 2 (64 for
# `replay`) with its reason on stderr, never aborts with an uncaught
# exception, never reads "7x" as 7 or "abc" as 0, and prints no table. The
# reason is the user's: no failed C++ expression, no source path.
#
#   cmake -DLIPSCTL=<lipsctl> -P bad_flags.cmake
set(failures "")

function(expect_rejected want)
  execute_process(COMMAND "${LIPSCTL}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REPLACE ";" " " args "${ARGN}")
  if(NOT rc EQUAL want)
    set(failures "${failures}\n[${args}] exited ${rc}, want ${want}: ${err}")
  endif()
  if(err MATCHES "terminate called")
    set(failures "${failures}\n[${args}] aborted: ${err}")
  endif()
  if(err MATCHES "precondition failed" OR err MATCHES "src/[^ ]*\\.cpp:")
    set(failures "${failures}\n[${args}] leaked code internals: ${err}")
  endif()
  if(NOT out STREQUAL "")
    set(failures "${failures}\n[${args}] printed to stdout:\n${out}")
  endif()
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

# Values the scenario validation refuses.
expect_rejected(2 --nodes 0)
expect_rejected(2 --zones 0)
expect_rejected(2 --epoch 0)
expect_rejected(2 --schedulers default --epoch 0)
expect_rejected(2 --c1 2)
expect_rejected(2 --workload swim --jobs 0)
expect_rejected(2 --schedulers default,bogus)
expect_rejected(2 --schedulers lips,lips)
# Values that are not numbers.
expect_rejected(2 --c1 abc)
expect_rejected(2 --seed 7x)
expect_rejected(2 --nodes abc)
expect_rejected(2 --patience abc)
expect_rejected(2 sweep --threads x)
expect_rejected(2 sweep --seeds 1.5)
expect_rejected(64 replay --connect /nonexistent.sock --seed 7x)
# There is no serve mode (lipsd is the daemon): the name is an unknown
# argument like any other.
expect_rejected(2 serve --stdio)

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "lipsctl mishandled bad flag values:${failures}")
endif()
