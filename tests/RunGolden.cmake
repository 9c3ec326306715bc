# Golden-file comparator, run as a ctest:
#
#   cmake -DCMD=<program> [-DFILE=<x.presburger>] -DGOLDEN=<x.golden>
#         [-DARGS=<extra;flags>] [-DREGENERATE=1] -P RunGolden.cmake
#
# Runs `CMD [--file FILE] [ARGS...]`, compares stdout byte-for-byte with
# GOLDEN, and prints both on mismatch.  With FILE, CMD is omegacount;
# without it, any program whose stdout is deterministic (the bench
# reproduction reports).  ARGS is a CMake ;-list of extra flags (e.g.
# "-DARGS=--backend=automaton"); only stdout is compared, so flags that
# add stderr reporting (--stats) stay deterministic.  With -DREGENERATE=1
# it rewrites the golden instead (used after an intentional output
# change; see README).

set(Command "${CMD}")
if(DEFINED FILE)
  list(APPEND Command --file "${FILE}")
endif()
list(APPEND Command ${ARGS})
string(JOIN " " Shown ${Command})

execute_process(
  COMMAND ${Command}
  OUTPUT_VARIABLE Actual
  ERROR_VARIABLE ErrOut
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${Shown} failed (exit ${Status}):\n${ErrOut}")
endif()

if(REGENERATE)
  file(WRITE "${GOLDEN}" "${Actual}")
  message(STATUS "regenerated ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden file ${GOLDEN} — generate it by "
                      "rerunning this script with -DREGENERATE=1 "
                      "(ctest -V shows the full command)")
endif()

file(READ "${GOLDEN}" Expected)
if(NOT Actual STREQUAL Expected)
  message(FATAL_ERROR "golden mismatch for ${Shown}\n"
                      "--- expected (${GOLDEN}) ---\n${Expected}\n"
                      "--- actual ---\n${Actual}")
endif()
