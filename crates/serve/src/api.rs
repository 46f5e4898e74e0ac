//! Request handlers: routing, request decoding, ranking, and response
//! rendering for the five service endpoints.
//!
//! Handlers are pure functions from `(state, request)` to a [`Reply`]
//! (status, JSON body, optional `Retry-After`) — the transport loop in
//! [`crate::server`] owns sockets, timeouts and metrics, so everything
//! here is directly unit-testable without a listener.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cisa_explore::DesignId;
use cisa_migrate::{classify_migration, classify_migration_with};
use cisa_power::CLOCK_HZ;
use cisa_sim::ExecSemantics;
use cisa_workloads::{BranchStyle, PhaseSpec};

use crate::http::Request;
use crate::json::{parse, Json, JsonWriter};
use crate::state::{RowError, ServerState};

/// Hard cap on `top` / `limit` request parameters.
const MAX_LIMIT: usize = 1000;

/// One handler's complete answer: status, JSON body, and the optional
/// `Retry-After` seconds the transport should put on the wire (set on
/// overload rejections so clients back off instead of retrying hot).
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// JSON response body.
    pub body: String,
    /// `Retry-After` header value in seconds, when the client should
    /// back off before retrying.
    pub retry_after: Option<u64>,
}

impl From<(u16, String)> for Reply {
    fn from((status, body): (u16, String)) -> Self {
        Reply {
            status,
            body,
            retry_after: None,
        }
    }
}

/// Routes one request to its handler.
pub(crate) fn handle(state: &Arc<ServerState>, req: &Request) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state).into(),
        ("GET", "/v1/designs") => designs(state, req).into(),
        ("GET", "/v1/metrics") => metrics(state).into(),
        ("POST", "/v1/affinity") => affinity(state, req),
        ("POST", "/v1/analyze") => analyze_code(state, req),
        (_, "/healthz" | "/v1/designs" | "/v1/metrics" | "/v1/affinity" | "/v1/analyze") => {
            error_response(
                405,
                "method_not_allowed",
                &format!("{} is not supported on {}", req.method, req.path),
            )
            .into()
        }
        _ => error_response(404, "not_found", &format!("no route for {}", req.path)).into(),
    }
}

/// Renders the uniform error envelope:
/// `{"error":{"status":...,"code":"...","message":"..."}}`.
pub(crate) fn error_response(status: u16, code: &str, message: &str) -> (u16, String) {
    let mut w = JsonWriter::new();
    w.begin_obj()
        .key("error")
        .begin_obj()
        .key("status")
        .uint(u64::from(status))
        .key("code")
        .str_val(code)
        .key("message")
        .str_val(message)
        .end_obj()
        .end_obj();
    (status, w.finish())
}

fn healthz(state: &Arc<ServerState>) -> (u16, String) {
    let mut w = JsonWriter::new();
    w.begin_obj()
        .key("status")
        .str_val(state.lifecycle().name())
        .key("breaker")
        .str_val(state.breaker().state_name())
        .key("requests_seen")
        .uint(state.requests_seen())
        .key("phases")
        .uint(state.phases.len() as u64)
        .key("feature_sets")
        .uint(state.space.feature_sets.len() as u64)
        .key("microarchs")
        .uint(state.space.microarchs.len() as u64)
        .key("rows_resident")
        .uint(state.rows_resident() as u64)
        .key("uptime_s")
        .num(state.uptime_s())
        .end_obj();
    (200, w.finish())
}

fn metrics(state: &Arc<ServerState>) -> (u16, String) {
    let stats = state.store().stats();
    let mut w = JsonWriter::new();
    w.begin_obj()
        .key("service")
        .begin_obj()
        .key("uptime_s")
        .num(state.uptime_s())
        .key("rows_resident")
        .uint(state.rows_resident() as u64)
        .key("store_mem_hits")
        .uint(stats.mem_hits)
        .key("store_disk_hits")
        .uint(stats.disk_hits)
        .key("store_misses")
        .uint(stats.misses)
        .end_obj()
        .key("registry")
        .raw(&cisa_obs::snapshot().to_json(true))
        .end_obj();
    (200, w.finish())
}

/// `GET /v1/designs` — slices of the design-point table with filters.
fn designs(state: &Arc<ServerState>, req: &Request) -> (u16, String) {
    let fs_filter = match req.query_param("fs") {
        Some(name) => match name.parse::<cisa_isa::FeatureSet>() {
            Ok(fs) => Some(fs),
            Err(_) => {
                return error_response(400, "bad_request", &format!("unknown feature set {name:?}"))
            }
        },
        None => None,
    };
    let sem_filter = match req.query_param("sem").as_deref() {
        None => None,
        Some("in_order") => Some(ExecSemantics::InOrder),
        Some("ooo") => Some(ExecSemantics::OutOfOrder),
        Some(other) => {
            return error_response(
                400,
                "bad_request",
                &format!("sem must be in_order or ooo, got {other:?}"),
            )
        }
    };
    let max_area = match positive_query(req, "max_area_mm2") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let max_power = match positive_query(req, "max_power_w") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let min_width = req
        .query_param("min_width")
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(0);
    let limit = req
        .query_param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(50)
        .min(MAX_LIMIT);
    let offset = req
        .query_param("offset")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);

    let n_ua = state.space.microarchs.len();
    let mut total = 0usize;
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("designs").begin_arr();
    for id in state.space.ids() {
        let fs = state.space.feature_sets[id.fs as usize];
        let ua = &state.space.microarchs[id.ua as usize];
        let (area, power) = state.space.budget(id);
        if fs_filter.is_some_and(|f| f != fs)
            || sem_filter.is_some_and(|s| s != ua.sem)
            || max_area.is_some_and(|m| area > m)
            || max_power.is_some_and(|m| power > m)
            || ua.width < min_width
        {
            continue;
        }
        total += 1;
        if total <= offset || total > offset + limit {
            continue;
        }
        w.begin_obj()
            .key("feature_set")
            .str_val(&fs.to_string())
            .key("ua_index")
            .uint(id.ua as u64)
            .key("flat_index")
            .uint(id.flat(n_ua) as u64)
            .key("area_mm2")
            .num(area)
            .key("peak_power_w")
            .num(power);
        write_microarch(&mut w, state, id);
        w.end_obj();
    }
    w.end_arr();
    w.key("total_matched").uint(total as u64);
    w.key("offset").uint(offset as u64);
    w.key("limit").uint(limit as u64);
    w.end_obj();
    (200, w.finish())
}

/// Parses an optional positive-float query parameter.
fn positive_query(req: &Request, name: &str) -> Result<Option<f64>, (u16, String)> {
    match req.query_param(name) {
        None => Ok(None),
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => Ok(Some(x)),
            _ => Err(error_response(
                400,
                "bad_request",
                &format!("{name} must be a positive number, got {v:?}"),
            )),
        },
    }
}

/// Writes the `"microarch": {...}` member for a design point.
fn write_microarch(w: &mut JsonWriter, state: &Arc<ServerState>, id: DesignId) {
    let ua = &state.space.microarchs[id.ua as usize];
    w.key("microarch")
        .begin_obj()
        .key("sem")
        .str_val(match ua.sem {
            ExecSemantics::InOrder => "in_order",
            ExecSemantics::OutOfOrder => "ooo",
        })
        .key("width")
        .uint(u64::from(ua.width))
        .key("predictor")
        .str_val(&format!("{:?}", ua.predictor))
        .key("int_alu")
        .uint(u64::from(ua.int_alu))
        .key("fp_alu")
        .uint(u64::from(ua.fp_alu))
        .key("lsq")
        .uint(u64::from(ua.lsq))
        .key("l1_kb")
        .uint(u64::from(ua.l1_kb))
        .key("l2_kb")
        .uint(u64::from(ua.l2_kb))
        .key("rob")
        .uint(u64::from(ua.window.rob))
        .end_obj();
}

/// The ranking objective of an affinity query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Objective {
    Edp,
    Energy,
    Delay,
}

impl Objective {
    fn name(self) -> &'static str {
        match self {
            Objective::Edp => "edp",
            Objective::Energy => "energy",
            Objective::Delay => "delay",
        }
    }
}

/// A POST body as a JSON object, or the 400 that says why it is not
/// one.
fn parse_object_body(req: &Request) -> Result<Json, Reply> {
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| Reply::from(error_response(400, "bad_request", "body is not UTF-8")))?;
    let root =
        parse(body).map_err(|e| Reply::from(error_response(400, "bad_json", &e.to_string())))?;
    if root.as_obj().is_none() {
        return Err(
            error_response(400, "bad_request", "request body must be a JSON object").into(),
        );
    }
    Ok(root)
}

/// `POST /v1/affinity` — the main query: rank feature sets for a phase
/// under a power/area budget.
fn affinity(state: &Arc<ServerState>, req: &Request) -> Reply {
    let _span = cisa_obs::span("affinity");
    let root = match parse_object_body(req) {
        Ok(v) => v,
        Err(reply) => return reply,
    };

    let spec = match resolve_spec(state, &root) {
        Ok(s) => s,
        Err(reply) => return reply,
    };

    let objective = match root.get("objective").and_then(Json::as_str) {
        None | Some("edp") => Objective::Edp,
        Some("energy") => Objective::Energy,
        Some("delay") => Objective::Delay,
        Some(other) => {
            return error_response(
                400,
                "bad_request",
                &format!("objective must be edp, energy or delay, got {other:?}"),
            )
            .into()
        }
    };
    let top = match root.get("top") {
        None => state.space.feature_sets.len(),
        Some(v) => match v.as_f64() {
            Some(n) if n >= 1.0 && n <= MAX_LIMIT as f64 && n.fract() == 0.0 => n as usize,
            _ => {
                return error_response(
                    400,
                    "bad_request",
                    &format!("top must be an integer in 1..={MAX_LIMIT}"),
                )
                .into()
            }
        },
    };
    let (max_power, max_area) = match parse_budget(&root) {
        Ok(b) => b,
        Err(msg) => return error_response(400, "bad_request", &msg).into(),
    };
    let current_fs = match root.get("current_feature_set") {
        None => None,
        Some(v) => match v.as_str().and_then(|s| s.parse().ok()) {
            Some(fs) => Some(fs),
            None => {
                return error_response(
                    400,
                    "bad_request",
                    "current_feature_set is not a feature set",
                )
                .into()
            }
        },
    };
    let deadline = match root.get("deadline_ms") {
        None => Instant::now() + state.config.default_deadline,
        Some(v) => match v.as_f64() {
            Some(ms) if (0.0..=3_600_000.0).contains(&ms) => {
                Instant::now() + Duration::from_millis(ms as u64)
            }
            _ => {
                return error_response(400, "bad_request", "deadline_ms must be in 0..=3600000")
                    .into()
            }
        },
    };

    // Produce the row (pinned / cached / refined under deadline).
    let (source, row) = match state.row_for_spec(&spec, deadline) {
        Ok(r) => r,
        Err(RowError::DeadlineExceeded) => {
            return error_response(
                504,
                "deadline_exceeded",
                "the deadline expired before the phase could be refined",
            )
            .into()
        }
        Err(RowError::RefineFailed(msg)) => {
            return error_response(500, "refine_failed", &msg).into()
        }
        Err(RowError::RefineUnavailable { retry_after_s }) => {
            let (status, body) = error_response(
                503,
                "refine_unavailable",
                "the refinement tier's circuit breaker is open; retry later",
            );
            return Reply {
                status,
                body,
                retry_after: Some(retry_after_s),
            };
        }
    };

    // Rank: per feature set, the best in-budget microarch by objective.
    let _rank = cisa_obs::span("rank");
    let n_ua = state.space.microarchs.len();
    let mut ranked: Vec<(usize, DesignId, f64)> = Vec::new();
    let mut infeasible = 0usize;
    for (fi, _fs) in state.space.feature_sets.iter().enumerate() {
        let mut best: Option<(DesignId, f64)> = None;
        for ua in 0..n_ua {
            let id = DesignId {
                fs: fi as u16,
                ua: ua as u16,
            };
            let (area, power) = state.space.budget(id);
            if max_area.is_some_and(|m| area > m) || max_power.is_some_and(|m| power > m) {
                continue;
            }
            let perf = row.perf(id);
            let delay_s = perf.cycles_per_unit / CLOCK_HZ;
            let score = match objective {
                Objective::Edp => perf.energy_per_unit * delay_s,
                Objective::Energy => perf.energy_per_unit,
                Objective::Delay => delay_s,
            };
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((id, score));
            }
        }
        match best {
            Some((id, score)) => ranked.push((fi, id, score)),
            None => infeasible += 1,
        }
    }
    if ranked.is_empty() {
        return error_response(
            400,
            "infeasible_budget",
            "no design point fits the requested budget",
        )
        .into();
    }
    // Stable order: score, then feature-set index for exact ties.
    ranked.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    ranked.truncate(top);

    // Migration costs are reported relative to the code the process
    // currently runs: the caller's feature set, or the winner's.
    let from_fs = current_fs.unwrap_or(state.space.feature_sets[ranked[0].0]);

    let mut w = JsonWriter::new();
    w.begin_obj()
        .key("phase")
        .str_val(&row.phase)
        .key("fingerprint")
        .str_val(&row.fingerprint)
        .key("source")
        .str_val(source.name())
        .key("objective")
        .str_val(objective.name())
        .key("migration_from")
        .str_val(&from_fs.to_string())
        .key("infeasible_feature_sets")
        .uint(infeasible as u64);
    w.key("ranked").begin_arr();
    for (rank, &(fi, id, score)) in ranked.iter().enumerate() {
        let fs = state.space.feature_sets[fi];
        let perf = row.perf(id);
        let (area, power) = state.space.budget(id);
        let delay_s = perf.cycles_per_unit / CLOCK_HZ;
        let migration = classify_migration(from_fs, fs);
        w.begin_obj()
            .key("rank")
            .uint(rank as u64 + 1)
            .key("feature_set")
            .str_val(&fs.to_string())
            .key("score")
            .num(score)
            .key("cycles_per_unit")
            .num(perf.cycles_per_unit)
            .key("cycles_per_unit_bits")
            .str_val(&format!("{:#018x}", perf.cycles_per_unit.to_bits()))
            .key("energy_per_unit_j")
            .num(perf.energy_per_unit)
            .key("energy_per_unit_bits")
            .str_val(&format!("{:#018x}", perf.energy_per_unit.to_bits()))
            .key("delay_s_per_unit")
            .num(delay_s)
            .key("edp")
            .num(perf.energy_per_unit * delay_s)
            .key("area_mm2")
            .num(area)
            .key("peak_power_w")
            .num(power)
            .key("ua_index")
            .uint(u64::from(id.ua));
        write_microarch(&mut w, state, id);
        w.key("migration").begin_obj();
        w.key("class").str_val(migration.class.name());
        w.key("gaps").begin_arr();
        for g in migration.gap_names() {
            w.str_val(g);
        }
        w.end_arr().end_obj();
        w.end_obj();
    }
    w.end_arr().end_obj();
    (200, w.finish()).into()
}

/// Resolves the `phase` / `spec` members shared by the POST query
/// endpoints: a known phase name, or an inline spec — exactly one.
fn resolve_spec(state: &Arc<ServerState>, root: &Json) -> Result<PhaseSpec, Reply> {
    match (root.get("phase"), root.get("spec")) {
        (Some(_), Some(_)) => {
            Err(error_response(400, "bad_request", "give either phase or spec, not both").into())
        }
        (Some(p), None) => {
            let Some(name) = p.as_str() else {
                return Err(error_response(400, "bad_request", "phase must be a string").into());
            };
            match state.phase_spec(name) {
                Some(s) => Ok(s.clone()),
                None => {
                    Err(error_response(404, "unknown_phase", &format!("no phase {name:?}")).into())
                }
            }
        }
        (None, Some(s)) => {
            parse_spec(s).map_err(|msg| error_response(400, "bad_spec", &msg).into())
        }
        (None, None) => {
            Err(error_response(400, "bad_request", "request needs a phase or a spec").into())
        }
    }
}

/// `POST /v1/analyze` — compile a phase for one feature set, run the
/// static analyzer over the laid-out bytes, and report the recovered
/// facts plus, per migration target, the conservative migration class
/// next to the statically-refined one.
fn analyze_code(state: &Arc<ServerState>, req: &Request) -> Reply {
    let _span = cisa_obs::span("analyze/handler");
    let root = match parse_object_body(req) {
        Ok(v) => v,
        Err(reply) => return reply,
    };
    let spec = match resolve_spec(state, &root) {
        Ok(s) => s,
        Err(reply) => return reply,
    };
    let fs: cisa_isa::FeatureSet = match root.get("feature_set").and_then(Json::as_str) {
        Some(s) => match s.parse() {
            Ok(f) => f,
            Err(_) => {
                return error_response(400, "bad_request", "feature_set is not a feature set")
                    .into()
            }
        },
        None => return error_response(400, "bad_request", "request needs a feature_set").into(),
    };

    let ir = cisa_workloads::generate(&spec);
    let code = match cisa_compiler::compile(&ir, &fs, &cisa_compiler::CompileOptions::default()) {
        Ok(c) => c,
        Err(e) => return error_response(500, "compile_failed", &e.to_string()).into(),
    };
    let image = match cisa_analyze::lay_out(&code) {
        Ok(im) => im,
        Err(e) => return error_response(500, "layout_failed", &e.to_string()).into(),
    };
    let analysis = cisa_analyze::analyze(&image.bytes);

    let mut w = JsonWriter::new();
    w.begin_obj()
        .key("phase")
        .str_val(&spec.name())
        .key("feature_set")
        .str_val(&fs.to_string())
        .key("instructions")
        .uint(analysis.inst_count as u64)
        .key("code_bytes")
        .uint(image.bytes.len() as u64);
    w.key("minimal_feature_set");
    match analysis.minimal_fs {
        Some(min) => w.str_val(&min.to_string()),
        None => w.raw("null"),
    };
    w.key("covered")
        .bool_val(analysis.minimal_fs.is_some_and(|min| fs.covers(&min)));
    w.key("cfg")
        .begin_obj()
        .key("blocks")
        .uint(analysis.cfg.blocks.len() as u64)
        .key("reachable")
        .uint(analysis.cfg.reachable_blocks() as u64)
        .key("escaping")
        .bool_val(analysis.cfg.escaping)
        .key("external_calls")
        .uint(analysis.cfg.external_calls as u64)
        .end_obj();
    w.key("dataflow")
        .begin_obj()
        .key("iters")
        .uint(analysis.dataflow.iters)
        .key("max_reaching_defs")
        .uint(analysis.dataflow.max_reaching_defs as u64)
        .end_obj();
    w.key("migration_points")
        .uint(analysis.points.points.len() as u64);
    w.key("findings").begin_arr();
    for f in &analysis.findings {
        w.begin_obj().key("rule").str_val(f.rule).key("severity");
        w.str_val(match f.severity {
            cisa_analyze::Severity::Error => "error",
            cisa_analyze::Severity::Advisory => "advisory",
        });
        if let Some(o) = f.offset {
            w.key("offset").uint(o as u64);
        }
        w.key("detail").str_val(&f.detail).end_obj();
    }
    w.end_arr();

    // Per-target migration pricing: the conservative feature-set-level
    // class next to what the migration-point map statically proves.
    let mut refined_pairs = 0u64;
    w.key("targets").begin_arr();
    for target in &state.space.feature_sets {
        let base = classify_migration(fs, *target);
        let refined = classify_migration_with(fs, *target, Some(&analysis.points));
        if refined.class < base.class {
            refined_pairs += 1;
        }
        w.begin_obj()
            .key("feature_set")
            .str_val(&target.to_string())
            .key("conservative")
            .str_val(base.class.name())
            .key("refined")
            .str_val(refined.class.name())
            .key("improved")
            .bool_val(refined.class < base.class)
            .end_obj();
    }
    w.end_arr()
        .key("refined_pairs")
        .uint(refined_pairs)
        .end_obj();
    (200, w.finish()).into()
}

/// Parses the optional `budget` member into `(max_power_w, max_area_mm2)`.
fn parse_budget(root: &Json) -> Result<(Option<f64>, Option<f64>), String> {
    let Some(b) = root.get("budget") else {
        return Ok((None, None));
    };
    if b.as_obj().is_none() {
        return Err("budget must be an object".to_string());
    }
    let field = |name: &str| -> Result<Option<f64>, String> {
        match b.get(name) {
            None => Ok(None),
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() && x > 0.0 => Ok(Some(x)),
                _ => Err(format!("budget.{name} must be a positive number")),
            },
        }
    };
    Ok((field("power_w")?, field("area_mm2")?))
}

/// Builds a [`PhaseSpec`] from an inline JSON spec. `benchmark` is
/// required and must name a known benchmark (its first phase provides
/// defaults for every omitted field).
fn parse_spec(spec: &Json) -> Result<PhaseSpec, String> {
    let obj = spec.as_obj().ok_or("spec must be an object")?;
    const KNOWN: &[&str] = &[
        "benchmark",
        "index",
        "seed",
        "register_pressure",
        "branchiness",
        "branch_style",
        "mem_intensity",
        "working_set_bytes",
        "stream_bytes",
        "pointer_chase_fraction",
        "fp_fraction",
        "vector_fraction",
        "wide_fraction",
        "loop_trip",
        "ilp_chains",
    ];
    for k in obj.keys() {
        if !KNOWN.contains(&k.as_str()) {
            return Err(format!("unknown spec field {k:?}"));
        }
    }
    let bench_name = spec
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or("spec.benchmark (string) is required")?;
    let mut out = cisa_workloads::all_phases()
        .into_iter()
        .find(|p| p.benchmark == bench_name)
        .ok_or_else(|| {
            let known: Vec<&str> = cisa_workloads::all_benchmarks()
                .iter()
                .map(|b| b.name)
                .collect();
            format!(
                "unknown benchmark {bench_name:?}; known: {}",
                known.join(", ")
            )
        })?;

    let uint_field = |name: &str, max: f64| -> Result<Option<u64>, String> {
        match spec.get(name) {
            None => Ok(None),
            Some(v) => match v.as_f64() {
                Some(n) if (0.0..=max).contains(&n) && n.fract() == 0.0 => Ok(Some(n as u64)),
                _ => Err(format!("spec.{name} must be an integer in 0..={max}")),
            },
        }
    };
    let frac_field = |name: &str| -> Result<Option<f64>, String> {
        match spec.get(name) {
            None => Ok(None),
            Some(v) => match v.as_f64() {
                Some(x) if (0.0..=1.0).contains(&x) => Ok(Some(x)),
                _ => Err(format!("spec.{name} must be in 0.0..=1.0")),
            },
        }
    };

    if let Some(v) = uint_field("index", 1e6)? {
        out.index = v as u32;
    }
    if let Some(v) = uint_field("seed", 1.8e19)? {
        out.seed = v;
    }
    if let Some(v) = uint_field("register_pressure", 64.0)? {
        out.register_pressure = (v as u32).max(1);
    }
    if let Some(v) = frac_field("branchiness")? {
        out.branchiness = v;
    }
    if let Some(v) = spec.get("branch_style") {
        out.branch_style = match v.as_str() {
            Some("regular") => BranchStyle::Regular,
            Some("patterned") => BranchStyle::Patterned,
            Some("irregular") => BranchStyle::Irregular,
            _ => return Err("spec.branch_style must be regular, patterned or irregular".into()),
        };
    }
    if let Some(v) = frac_field("mem_intensity")? {
        out.mem_intensity = v;
    }
    if let Some(v) = uint_field("working_set_bytes", 1e9)? {
        out.locality.working_set_bytes = v;
    }
    if let Some(v) = uint_field("stream_bytes", 1e9)? {
        out.locality.stream_bytes = v;
    }
    if let Some(v) = frac_field("pointer_chase_fraction")? {
        out.locality.pointer_chase_fraction = v;
    }
    if let Some(v) = frac_field("fp_fraction")? {
        out.fp_fraction = v;
    }
    if let Some(v) = frac_field("vector_fraction")? {
        out.vector_fraction = v;
    }
    if let Some(v) = frac_field("wide_fraction")? {
        out.wide_fraction = v;
    }
    if let Some(v) = uint_field("loop_trip", 1e6)? {
        out.loop_trip = (v as u32).max(1);
    }
    if let Some(v) = uint_field("ilp_chains", 64.0)? {
        out.ilp_chains = (v as u32).max(1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_envelope_shape() {
        let (status, body) = error_response(404, "not_found", "nope");
        assert_eq!(status, 404);
        let v = parse(&body).expect("valid JSON");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("not_found")
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("status"))
                .and_then(Json::as_f64),
            Some(404.0)
        );
    }

    #[test]
    fn inline_spec_defaults_from_benchmark() {
        let v = parse(r#"{"benchmark":"mcf","seed":42,"mem_intensity":0.9}"#).expect("ok");
        let spec = parse_spec(&v).expect("spec parses");
        assert_eq!(spec.benchmark, "mcf");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.mem_intensity, 0.9);
        // Unset fields come from mcf's first phase.
        let base = cisa_workloads::all_phases()
            .into_iter()
            .find(|p| p.benchmark == "mcf")
            .expect("mcf exists");
        assert_eq!(spec.loop_trip, base.loop_trip);
    }

    #[test]
    fn inline_spec_rejects_bad_fields() {
        for body in [
            r#"{"index":0}"#,
            r#"{"benchmark":"no_such_bench"}"#,
            r#"{"benchmark":"mcf","typo_field":1}"#,
            r#"{"benchmark":"mcf","branchiness":1.5}"#,
            r#"{"benchmark":"mcf","branch_style":"wavy"}"#,
            r#"{"benchmark":"mcf","loop_trip":-3}"#,
        ] {
            let v = parse(body).expect("valid JSON");
            assert!(parse_spec(&v).is_err(), "{body}");
        }
    }
}
