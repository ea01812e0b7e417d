# The benchmark driver: one executable over dfmkit's public libraries.
# Included at the end of dfmkit's top-level configure (perfbench/hook.cmake).
add_executable(perfbench_driver
  ${PERFBENCH_DRIVER_DIR}/main.cpp
  ${PERFBENCH_DRIVER_DIR}/common.cpp
  ${PERFBENCH_DRIVER_DIR}/inputs.cpp
  ${PERFBENCH_DRIVER_DIR}/cold.cpp
  ${PERFBENCH_DRIVER_DIR}/eco.cpp
  ${PERFBENCH_DRIVER_DIR}/fix.cpp
)
target_link_libraries(perfbench_driver PRIVATE dfm_shard dfm_service dfm_core
                      dfm_version Threads::Threads)
