# lipsctl's main mode prints what it printed when these goldens were
# recorded, byte for byte: the Fig. 6 (iii) default run, every scheduler
# with cost-aware speculation, the pruned LP above 30 nodes, and a cluster
# fault storm plus solver faults (which also pins the `lips lp:`,
# `lips resilience:` and `lips solver-faults:` lines). Every run is seeded,
# so any difference is a change in behaviour.
#
#   cmake -DLIPSCTL=<lipsctl> -DGOLDEN_DIR=<tools/golden> -DWORK_DIR=<dir>
#         -P lipsctl_golden.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(failures "")

function(expect_golden golden)
  execute_process(COMMAND "${LIPSCTL}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_FILE "${WORK_DIR}/${golden}"
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    set(failures "${failures}\n${golden}: exit ${rc}: ${err}" PARENT_SCOPE)
    return()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${GOLDEN_DIR}/${golden}" "${WORK_DIR}/${golden}" RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    file(READ "${WORK_DIR}/${golden}" got)
    set(failures "${failures}\n${golden} differs; got:\n${got}" PARENT_SCOPE)
  endif()
endfunction()

expect_golden(fig6_iii.csv --csv)
expect_golden(all_schedulers_cost_spec.txt
  --nodes 8 --workload swim --jobs 20
  --schedulers default,delay,fair,quincy,lips
  --speculation cost --replication 2 --seed 5)
expect_golden(pruned_40_nodes.csv
  --nodes 40 --workload swim --jobs 30 --schedulers default,lips
  --patience 2 --no-feedback --csv)
expect_golden(fault_and_solver_storm.txt
  --nodes 10 --workload swim --jobs 40 --schedulers delay,lips
  --epoch 300 --patience off
  --faults mtbf=2000,mttr=300,slowdown=2,slowdown_factor=4,seed=11
  --solver-faults nan=0.35,inf=0.15,basis=0.35,refactor=0.15,budget=0.25,starve_iters=2,seed=11)

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "lipsctl output moved:${failures}")
endif()
