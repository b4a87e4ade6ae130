# Shared helpers for the repo's shell entry points (check.sh, fleet_ci.sh).
# Sourced, not executed.

# ensure_build_dir <dir> <build_type> <sanitize>
#
# Configures <dir> with the requested CMAKE_BUILD_TYPE and KWIKR_SANITIZE,
# wiping the directory first when its cached KWIKR_SANITIZE disagrees with
# the request. Without the wipe, a leftover `-DKWIKR_SANITIZE=thread` cache
# entry silently instruments every later "plain" build made in the same
# directory (CMake caches -D values across runs), which both slows the build
# ~10x and invalidates any perf numbers produced from it. Pass "" for
# either value to mean "the project default".
ensure_build_dir() {
  local dir="$1" build_type="${2:-}" sanitize="${3:-}"
  local cache="$dir/CMakeCache.txt"
  if [[ -f "$cache" ]]; then
    local cached_san
    cached_san=$(sed -n 's/^KWIKR_SANITIZE:[^=]*=//p' "$cache")
    if [[ "${cached_san:-}" != "${sanitize:-}" ]]; then
      echo "warning: $dir was configured with KWIKR_SANITIZE='${cached_san:-}'" \
           "but this run wants '${sanitize:-}' — wiping the stale cache" >&2
      rm -rf "$dir"
    fi
  fi
  local args=(-B "$dir" -S .)
  [[ -n "$build_type" ]] && args+=("-DCMAKE_BUILD_TYPE=$build_type")
  # Always pass the sanitize value (including the empty default) so a bare
  # reconfigure can never inherit a stale cached one.
  args+=("-DKWIKR_SANITIZE=$sanitize")
  cmake "${args[@]}" >/dev/null
}

# ensure_spill_dir <dir>
#
# Gives the shard runner a *fresh* spill directory. The runner's resume
# path is deliberately conservative: a checkpoint manifest left behind by an
# earlier sweep with the same fingerprint would short-circuit a fresh run
# ("everything already completed"), and one from a different sweep makes
# --resume refuse outright. Scripted runs that want a clean sweep must
# therefore wipe the directory first — stale manifests are state, not
# cache, and the cache-wipe rules ensure_build_dir applies to sanitizer
# flags apply equally here.
ensure_spill_dir() {
  local dir="$1"
  rm -rf "$dir"
  mkdir -p "$dir"
}
