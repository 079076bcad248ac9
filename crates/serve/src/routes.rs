//! The central route table: one declarative list of every endpoint the
//! server answers, replacing ad-hoc `(method, path)` matching.
//!
//! There is one API surface, versioned under `/v1` and trace-scoped:
//! analysis endpoints name their trace in the path
//! (`POST /v1/traces/{name}/query`), registry management lives under
//! `/v1/traces`, and control endpoints are registry-wide
//! (`GET /v1/healthz`). The unversioned paths of earlier releases
//! (`/query`, `/healthz`, …) are gone and answer a typed 404.
//!
//! Unknown paths resolve to a typed 404 and known paths with the wrong
//! method to a typed 405 (listing the allowed methods), so the error
//! surface is enumerable — see the table test below, which walks every
//! `(method, path)` pair.

/// Everything the server can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Liveness + registry + SLO standings.
    Healthz,
    /// Prometheus text exposition.
    Metrics,
    /// The request-kind taxonomy.
    Requests,
    /// Drain and stop the server.
    Shutdown,
    /// One analysis request against one trace.
    Query,
    /// A JSON array of requests against one trace.
    Batch,
    /// List registered traces.
    TraceList,
    /// Upload (CSV or `.hpcsnap`) into a named slot.
    TraceUpload,
    /// One trace's registry entry.
    TraceShow,
    /// Evict a named trace.
    TraceDelete,
}

impl Endpoint {
    /// `true` for the endpoints that run analysis traffic — the ones
    /// admission control and the respond-point chaos injection apply
    /// to (`/healthz`, `/metrics` etc. must stay observable during a
    /// storm).
    pub fn is_analysis(self) -> bool {
        matches!(self, Endpoint::Query | Endpoint::Batch)
    }
}

/// A successfully routed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteMatch {
    /// The endpoint to dispatch to.
    pub endpoint: Endpoint,
    /// The trace name bound from the path; `None` for registry-wide
    /// endpoints.
    pub trace: Option<String>,
}

/// The routing outcome for a `(method, path)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routed {
    /// Dispatch to an endpoint.
    Matched(RouteMatch),
    /// The path exists, the method does not: a typed 405 listing what
    /// would have worked.
    MethodNotAllowed(Vec<&'static str>),
    /// No route knows the path: a typed 404.
    NotFound,
}

/// One row of the route table. Patterns are `/`-separated literals
/// with `{name}` binding a trace-name segment.
struct RouteSpec {
    method: &'static str,
    pattern: &'static str,
    endpoint: Endpoint,
}

const fn v1(method: &'static str, pattern: &'static str, endpoint: Endpoint) -> RouteSpec {
    RouteSpec {
        method,
        pattern,
        endpoint,
    }
}

/// The route table. Order only matters for readability — patterns are
/// disjoint.
const ROUTES: &[RouteSpec] = &[
    v1("GET", "/v1/healthz", Endpoint::Healthz),
    v1("GET", "/v1/metrics", Endpoint::Metrics),
    v1("GET", "/v1/requests", Endpoint::Requests),
    v1("POST", "/v1/shutdown", Endpoint::Shutdown),
    v1("GET", "/v1/traces", Endpoint::TraceList),
    v1("POST", "/v1/traces/{name}", Endpoint::TraceUpload),
    v1("GET", "/v1/traces/{name}", Endpoint::TraceShow),
    v1("DELETE", "/v1/traces/{name}", Endpoint::TraceDelete),
    v1("POST", "/v1/traces/{name}/query", Endpoint::Query),
    v1("POST", "/v1/traces/{name}/batch", Endpoint::Batch),
];

/// Matches `path` against `pattern`, returning the bound `{name}`
/// segment (if the pattern has one) on success.
fn match_pattern(pattern: &str, path: &str) -> Option<Option<String>> {
    let mut bound = None;
    let mut want = pattern.split('/');
    let mut got = path.split('/');
    loop {
        match (want.next(), got.next()) {
            (None, None) => return Some(bound),
            (Some("{name}"), Some(segment)) if !segment.is_empty() => {
                bound = Some(segment.to_owned());
            }
            (Some(expect), Some(segment)) if expect == segment => {}
            _ => return None,
        }
    }
}

/// Resolves one `(method, path)` pair against the route table.
pub fn resolve(method: &str, path: &str) -> Routed {
    let mut allowed: Vec<&'static str> = Vec::new();
    for spec in ROUTES {
        let Some(bound) = match_pattern(spec.pattern, path) else {
            continue;
        };
        if spec.method != method {
            if !allowed.contains(&spec.method) {
                allowed.push(spec.method);
            }
            continue;
        }
        return Routed::Matched(RouteMatch {
            endpoint: spec.endpoint,
            trace: bound,
        });
    }
    if allowed.is_empty() {
        Routed::NotFound
    } else {
        Routed::MethodNotAllowed(allowed)
    }
}

/// The path hint for 404 bodies.
pub const KNOWN_PATHS_HINT: &str = "unknown path; try /v1/healthz, /v1/metrics, /v1/requests, \
     /v1/traces, /v1/traces/{name}, /v1/traces/{name}/query, /v1/traces/{name}/batch, \
     /v1/shutdown";

#[cfg(test)]
mod tests {
    use super::*;

    fn matched(method: &str, path: &str) -> RouteMatch {
        match resolve(method, path) {
            Routed::Matched(m) => m,
            other => panic!("{method} {path} did not match: {other:?}"),
        }
    }

    /// The satellite-mandated table walk: every (method, path) pair in
    /// the product of known methods × representative paths resolves to
    /// exactly the documented outcome.
    #[test]
    fn every_method_path_pair_resolves_as_documented() {
        let methods = ["GET", "POST", "DELETE", "PUT", "HEAD"];
        // (path, per-method expected endpoint, allowed methods for 405)
        type Row = (
            &'static str,
            &'static [(&'static str, Endpoint)],
            &'static [&'static str],
        );
        let table: &[Row] = &[
            ("/v1/healthz", &[("GET", Endpoint::Healthz)], &["GET"]),
            ("/v1/metrics", &[("GET", Endpoint::Metrics)], &["GET"]),
            ("/v1/requests", &[("GET", Endpoint::Requests)], &["GET"]),
            ("/v1/shutdown", &[("POST", Endpoint::Shutdown)], &["POST"]),
            ("/v1/traces", &[("GET", Endpoint::TraceList)], &["GET"]),
            (
                "/v1/traces/lanl",
                &[
                    ("POST", Endpoint::TraceUpload),
                    ("GET", Endpoint::TraceShow),
                    ("DELETE", Endpoint::TraceDelete),
                ],
                &["POST", "GET", "DELETE"],
            ),
            (
                "/v1/traces/lanl/query",
                &[("POST", Endpoint::Query)],
                &["POST"],
            ),
            (
                "/v1/traces/lanl/batch",
                &[("POST", Endpoint::Batch)],
                &["POST"],
            ),
        ];
        for (path, expects, allowed) in table {
            for method in methods {
                match expects.iter().find(|(m, _)| *m == method) {
                    Some((_, endpoint)) => {
                        assert_eq!(matched(method, path).endpoint, *endpoint, "{method} {path}");
                    }
                    None => match resolve(method, path) {
                        Routed::MethodNotAllowed(methods_seen) => {
                            assert_eq!(&methods_seen, allowed, "{method} {path}");
                        }
                        other => panic!("{method} {path}: expected 405, got {other:?}"),
                    },
                }
            }
        }
        // Paths no route knows are 404 for every method, including the
        // retired unversioned surface.
        let retired = [
            "/healthz",
            "/metrics",
            "/requests",
            "/shutdown",
            "/query",
            "/batch",
        ];
        let unknown = ["/", "/nope", "/v1", "/v1/traces/a/b/c", "/v2/healthz"];
        for path in retired.into_iter().chain(unknown) {
            for method in methods {
                assert_eq!(resolve(method, path), Routed::NotFound, "{method} {path}");
            }
        }
    }

    #[test]
    fn trace_names_bind_from_the_path() {
        assert_eq!(
            matched("POST", "/v1/traces/fleet-100k/query")
                .trace
                .as_deref(),
            Some("fleet-100k")
        );
        assert_eq!(
            matched("DELETE", "/v1/traces/lanl96").trace.as_deref(),
            Some("lanl96")
        );
        // Control endpoints are registry-wide.
        assert_eq!(matched("GET", "/v1/healthz").trace, None);
    }

    #[test]
    fn empty_name_segments_do_not_match() {
        assert_eq!(resolve("POST", "/v1/traces//query"), Routed::NotFound);
        // "/v1/traces/" has a trailing empty segment: not a name.
        assert_eq!(resolve("POST", "/v1/traces/"), Routed::NotFound);
    }
}
