//! Collapsed-stack flamegraph export: folds the span tree and the
//! kernel-probe attribution table into the `frame;frame;frame value`
//! text format that `inferno-flamegraph`, `flamegraph.pl` and
//! speedscope ("Brendan Gregg collapsed stacks") load directly.
//!
//! Each output line is one unique stack: span frames from root to leaf,
//! then kernel frames (`name(4x4)`) nested by their recorded parent
//! probe. Values are **self** microseconds — a span's own time minus
//! child spans and top-level kernel time under it, a kernel's time
//! minus nested kernel probes — so frame widths sum correctly instead
//! of double-counting inclusive time. `;` and whitespace are structural
//! in this format, so frames pass through [`sanitize_frame`]; identical
//! stacks collapse by summing, and lines are sorted for deterministic
//! output.

use crate::{Snapshot, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Replaces the characters that are structural in the collapsed-stack
/// format (`;`, whitespace) and control characters with `_`, so hostile
/// span/kernel names cannot forge extra frames or break the
/// one-stack-per-line invariant. Empty names become `_`.
pub(crate) fn sanitize_frame(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

fn kernel_frame(name: &str, dim: u32) -> String {
    format!("{}({dim}x{dim})", sanitize_frame(name))
}

/// Resolves the span path (root-to-leaf frame list) for `id`, memoized.
fn span_path(
    id: u64,
    by_id: &BTreeMap<u64, &SpanRecord>,
    cache: &mut BTreeMap<u64, String>,
) -> String {
    if let Some(p) = cache.get(&id) {
        return p.clone();
    }
    let Some(span) = by_id.get(&id) else {
        return String::new();
    };
    // Walk up iteratively with a depth cap: parent links come from
    // runtime data, so a corrupt or cyclic chain must not recurse
    // forever.
    let mut chain: Vec<u64> = vec![id];
    let mut cursor = *span;
    while let Some(parent) = cursor.parent.and_then(|p| by_id.get(&p)) {
        if cache.contains_key(&parent.id) || chain.len() >= 64 || chain.contains(&parent.id) {
            break;
        }
        chain.push(parent.id);
        cursor = parent;
    }
    let mut path = match cursor.parent.and_then(|p| cache.get(&p)) {
        Some(prefix) => prefix.clone(),
        None => String::new(),
    };
    for &link in chain.iter().rev() {
        let frame = sanitize_frame(&by_id[&link].name);
        if !path.is_empty() {
            path.push(';');
        }
        path.push_str(&frame);
        cache.insert(link, path.clone());
    }
    path
}

/// Identifies a probe within a span: (span id, kernel name, dim).
/// Sites that differ only in their recorded parent collapse into one
/// ident — the heaviest parent wins for path reconstruction.
type SiteIdent = (Option<u64>, String, u32);

impl Snapshot {
    /// Serializes the span tree + kernel-probe table as collapsed
    /// stacks (one `frame;frame value` line per unique stack, values in
    /// self-microseconds). Feed the output to `inferno-flamegraph` /
    /// `flamegraph.pl`, or import it into <https://speedscope.app>.
    /// Stacks with zero accumulated self-time are omitted; lines are
    /// sorted, so equal snapshots render byte-identical files.
    pub fn to_collapsed_stacks(&self) -> String {
        let by_id: BTreeMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        // Child-span time per parent id, for span self-time.
        let mut child_span_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if by_id.contains_key(&p) {
                    *child_span_ns.entry(p).or_insert(0) += s.duration_ns;
                }
            }
        }
        // Fold the site table: total per ident, top-level kernel time
        // per span (nested sites are already inside their parent's
        // total), nested time per parent ident, and each ident's
        // dominant parent.
        let mut ident_total: BTreeMap<SiteIdent, u64> = BTreeMap::new();
        let mut top_level_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let mut nested_ns: BTreeMap<SiteIdent, u64> = BTreeMap::new();
        let mut heaviest: BTreeMap<SiteIdent, (u64, Option<SiteIdent>)> = BTreeMap::new();
        for site in &self.kernel_sites {
            let ident: SiteIdent = (site.span, site.name.clone(), site.dim);
            *ident_total.entry(ident.clone()).or_insert(0) += site.total_ns;
            let parent_ident: Option<SiteIdent> = site
                .parent
                .as_ref()
                .map(|(n, d)| (site.span, n.clone(), *d));
            match &parent_ident {
                None => {
                    if let Some(id) = site.span {
                        *top_level_ns.entry(id).or_insert(0) += site.total_ns;
                    }
                }
                Some(p) => {
                    *nested_ns.entry(p.clone()).or_insert(0) += site.total_ns;
                }
            }
            let slot = heaviest.entry(ident).or_insert((0, None));
            if site.total_ns >= slot.0 {
                *slot = (site.total_ns, parent_ident);
            }
        }
        let dominant_parent: BTreeMap<SiteIdent, Option<SiteIdent>> = heaviest
            .into_iter()
            .map(|(k, (_, parent))| (k, parent))
            .collect();

        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        let mut path_cache: BTreeMap<u64, String> = BTreeMap::new();
        for s in &self.spans {
            let children = child_span_ns.get(&s.id).copied().unwrap_or(0);
            let kernels = top_level_ns.get(&s.id).copied().unwrap_or(0);
            let self_ns = s
                .duration_ns
                .saturating_sub(children)
                .saturating_sub(kernels);
            if self_ns == 0 {
                continue;
            }
            let path = span_path(s.id, &by_id, &mut path_cache);
            *stacks.entry(path).or_insert(0) += self_ns;
        }
        for (ident, total) in &ident_total {
            let nested = nested_ns.get(ident).copied().unwrap_or(0);
            let self_ns = total.saturating_sub(nested);
            if self_ns == 0 {
                continue;
            }
            // Kernel frames, innermost-last, walking the dominant
            // parent chain (capped: the chain is runtime data).
            let mut frames: Vec<String> = vec![kernel_frame(&ident.1, ident.2)];
            let mut cursor = dominant_parent.get(ident).cloned().flatten();
            while let Some(key) = cursor {
                if frames.len() >= 16 {
                    break;
                }
                frames.push(kernel_frame(&key.1, key.2));
                cursor = dominant_parent.get(&key).cloned().flatten();
            }
            frames.reverse();
            let suffix = frames.join(";");
            let span_prefix = ident
                .0
                .filter(|id| by_id.contains_key(id))
                .map(|id| span_path(id, &by_id, &mut path_cache))
                .unwrap_or_default();
            let path = if span_prefix.is_empty() {
                suffix
            } else {
                format!("{span_prefix};{suffix}")
            };
            *stacks.entry(path).or_insert(0) += self_ns;
        }

        let mut out = String::new();
        for (path, ns) in &stacks {
            let us = ns / 1_000;
            if us == 0 || path.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{path} {us}");
        }
        out
    }
}
