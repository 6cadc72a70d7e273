//! Name → backend resolution.

use crate::backends::Backend;

/// Registry names of the shipped backends, in presentation order.
pub const BACKEND_NAMES: [&str; 3] = ["transmon-grid", "heavy-hex", "tunable-coupler"];

/// Why a backend could not be resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// No backend with that name is registered.
    Unknown {
        /// The requested name.
        name: String,
    },
    /// The calibration override could not be loaded.
    Calibration {
        /// The parse/read failure.
        message: String,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Unknown { name } => write!(
                f,
                "unknown backend {name:?} (known: {})",
                BACKEND_NAMES.join(", ")
            ),
            BackendError::Calibration { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Resolves a backend by registry name, with its shipped calibration.
///
/// # Errors
///
/// Returns [`BackendError::Unknown`] for an unregistered name.
pub fn resolve(name: &str) -> Result<Backend, BackendError> {
    resolve_with_cal(name, None)
}

/// Resolves a backend by name, optionally overriding its calibration
/// snapshot with the file at `cal`.
///
/// Only the heavy-hex backend accepts a snapshot override; passing one
/// to the other backends is an error (silently ignoring an operator's
/// calibration file would be worse).
///
/// # Errors
///
/// Returns [`BackendError`] on an unknown name, an unreadable or
/// malformed snapshot, or an override for a backend that takes none.
pub fn resolve_with_cal(
    name: &str,
    cal: Option<&std::path::Path>,
) -> Result<Backend, BackendError> {
    match name {
        "heavy-hex" => match cal {
            Some(path) => {
                Backend::heavy_hex_from_snapshot_file(path).map_err(|e| BackendError::Calibration {
                    message: e.to_string(),
                })
            }
            None => Ok(Backend::heavy_hex()),
        },
        "transmon-grid" | "tunable-coupler" => {
            if let Some(path) = cal {
                return Err(BackendError::Calibration {
                    message: format!(
                        "backend {name:?} takes no calibration snapshot (got {})",
                        path.display()
                    ),
                });
            }
            Ok(match name {
                "transmon-grid" => Backend::transmon_grid(),
                _ => Backend::tunable_coupler(0.5),
            })
        }
        _ => Err(BackendError::Unknown {
            name: name.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_resolves_to_itself() {
        for name in BACKEND_NAMES {
            let b = resolve(name).expect(name);
            assert_eq!(b.name(), name);
            assert!(!b.description().is_empty());
        }
    }

    #[test]
    fn unknown_name_lists_the_registry() {
        let Err(e) = resolve("ion-trap") else {
            panic!("unknown backend must fail");
        };
        assert!(e.to_string().contains("transmon-grid"), "{e}");
    }

    #[test]
    fn cal_override_is_rejected_where_meaningless() {
        let Err(e) = resolve_with_cal("transmon-grid", Some(std::path::Path::new("/tmp/x.json")))
        else {
            panic!("cal override on transmon-grid must fail");
        };
        assert!(e.to_string().contains("takes no calibration"), "{e}");
    }
}
