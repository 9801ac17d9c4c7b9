# Snapshots come about every 300 simulated seconds unless --checkpoint-every
# says otherwise: quincy's 30 s flow rounds snapshot every 10th round, not on
# each one, while LiPS's 400 s epochs still snapshot every epoch. The cadence
# must not move a schedule: the digests below were recorded when every
# quincy round wrote a snapshot, and a restored run reprints them and the
# same table.
#
#   cmake -DLIPSCTL=<lipsctl> -DWORK_DIR=<scratch dir> -P checkpoint_cadence.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(run --nodes 8 --workload swim --jobs 20 --schedulers quincy,lips
        --checkpoint-dir "${WORK_DIR}/snaps")
set(quincy_digest "a7960fe2721231df")
set(lips_digest "fc18c182f937675b")

function(run_lipsctl out_var)
  execute_process(COMMAND "${LIPSCTL}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lipsctl ${ARGN} exited ${rc}: ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The table rows (lines starting with '|') of a lipsctl report.
function(table_rows out_var text)
  string(REGEX MATCHALL "\\|[^\n]*" rows "${text}")
  set(${out_var} "${rows}" PARENT_SCOPE)
endfunction()

run_lipsctl(fresh ${run})
if(NOT fresh MATCHES "quincy: ([0-9]+) snapshot\\(s\\) written, 0 failed, schedule digest ${quincy_digest}\n")
  message(FATAL_ERROR "quincy snapshot line missing or digest moved:\n${fresh}")
endif()
set(quincy_snapshots "${CMAKE_MATCH_1}")
if(quincy_snapshots GREATER 300 OR quincy_snapshots EQUAL 0)
  message(FATAL_ERROR "quincy wrote ${quincy_snapshots} snapshots, want 1..300")
endif()
if(NOT fresh MATCHES "lips: 145 snapshot\\(s\\) written, 0 failed, schedule digest ${lips_digest}\n")
  message(FATAL_ERROR "lips no longer writes 145 snapshots with digest "
                      "${lips_digest}:\n${fresh}")
endif()

# Resuming from the newest snapshot finishes both runs as before.
run_lipsctl(restored ${run} --restore)
foreach(pair "quincy;${quincy_digest}" "lips;${lips_digest}")
  list(GET pair 0 name)
  list(GET pair 1 digest)
  if(NOT restored MATCHES "${name}: resuming from epoch [0-9]+ ")
    message(FATAL_ERROR "${name} did not resume from a snapshot:\n${restored}")
  endif()
  if(NOT restored MATCHES "${name}: [0-9]+ snapshot\\(s\\) written, 0 failed, schedule digest ${digest} \\(resumed run\\)")
    message(FATAL_ERROR "${name}'s resumed run moved its digest:\n${restored}")
  endif()
endforeach()
table_rows(fresh_rows "${fresh}")
table_rows(restored_rows "${restored}")
if(NOT fresh_rows STREQUAL restored_rows)
  message(FATAL_ERROR "the resumed table differs:\n${fresh}\n---\n${restored}")
endif()

# An explicit --checkpoint-every still wins: 145 epochs / 5.
file(REMOVE_RECURSE "${WORK_DIR}/every5")
run_lipsctl(every5 --nodes 8 --workload swim --jobs 20 --schedulers lips
  --checkpoint-dir "${WORK_DIR}/every5" --checkpoint-every 5)
if(NOT every5 MATCHES "lips: 29 snapshot\\(s\\) written, 0 failed, schedule digest ${lips_digest}\n")
  message(FATAL_ERROR "--checkpoint-every 5 did not give 29 snapshots:\n${every5}")
endif()
