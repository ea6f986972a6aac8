//! `sfscd`/`sfssd` dispatch configuration (§3.2).
//!
//! "A configuration file controls how client and server masters hand off
//! connections. Thus, one can add new file system protocols to SFS
//! without changing any of the existing software. Old and new versions of
//! the same protocols can run alongside each other, even when the
//! corresponding subsidiary daemons have no special support for backwards
//! compatibility."
//!
//! A [`DispatchTable`] maps a connection's announced (service, dialect,
//! version, extensions) to a subsidiary daemon name; `sfssd` consults it
//! on the first message of every connection. The same table drives
//! `sfscd`'s choice of subordinate client daemon.

use crate::wire::{Dialect, Service};

/// One dispatch rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DispatchRule {
    /// Service the rule matches.
    pub(crate) service: Service,
    /// Dialect the rule matches.
    pub(crate) dialect: Dialect,
    /// Inclusive protocol version range.
    pub(crate) versions: (u32, u32),
    /// Extension string this rule requires (empty = no extension).
    pub(crate) extension: String,
    /// Name of the subsidiary daemon to hand the connection to.
    pub(crate) daemon: String,
}

impl DispatchRule {
    fn matches(&self, service: Service, dialect: Dialect, version: u32, extension: &str) -> bool {
        self.service == service
            && self.dialect == dialect
            && (self.versions.0..=self.versions.1).contains(&version)
            && self.extension == extension
    }
}

/// The configuration file `sfssd` starts from (format: [`DispatchTable::parse`]).
const STANDARD: &str = "\
# service dialect versions daemon [extension]
file  rw  1  sfsrwsd
file  ro  1  sfsrosd
auth  rw  1  sfsauthd
";

/// The dispatch table (the parsed "configuration file").
#[derive(Debug, Clone, Default)]
pub(crate) struct DispatchTable {
    rules: Vec<DispatchRule>,
}

impl DispatchTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The stock configuration shipped with this reproduction
    /// ([`STANDARD`]): the read-write file server, the read-only server,
    /// and the authserver.
    pub(crate) fn standard() -> Self {
        Self::parse(STANDARD).expect("the stock configuration parses")
    }

    /// Appends a rule (later rules do not shadow earlier ones; first
    /// match wins, so site configuration can prepend overrides).
    pub(crate) fn add(&mut self, rule: DispatchRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Resolves a connection announcement to a daemon name.
    pub(crate) fn dispatch(
        &self,
        service: Service,
        dialect: Dialect,
        version: u32,
        extension: &str,
    ) -> Option<&str> {
        self.rules
            .iter()
            .find(|r| r.matches(service, dialect, version, extension))
            .map(|r| r.daemon.as_str())
    }

    /// Parses the tiny configuration-file format:
    ///
    /// ```text
    /// # service dialect versions daemon [extension]
    /// file  rw  1-2  sfsrwsd
    /// file  ro  1-1  sfsrosd
    /// auth  rw  1-1  sfsauthd
    /// file  rw  3-3  sfsrwsd-v3  newcache
    /// ```
    pub(crate) fn parse(text: &str) -> Result<Self, String> {
        let mut table = Self::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() < 4 || fields.len() > 5 {
                return Err(format!("line {}: expected 4-5 fields", lineno + 1));
            }
            let service = match fields[0] {
                "file" => Service::File,
                "auth" => Service::Auth,
                other => return Err(format!("line {}: unknown service {other}", lineno + 1)),
            };
            let dialect = match fields[1] {
                "rw" => Dialect::ReadWrite,
                "ro" => Dialect::ReadOnly,
                other => return Err(format!("line {}: unknown dialect {other}", lineno + 1)),
            };
            let versions = match fields[2].split_once('-') {
                Some((lo, hi)) => {
                    let lo: u32 = lo
                        .parse()
                        .map_err(|_| format!("line {}: bad version", lineno + 1))?;
                    let hi: u32 = hi
                        .parse()
                        .map_err(|_| format!("line {}: bad version", lineno + 1))?;
                    if lo > hi {
                        return Err(format!("line {}: empty version range", lineno + 1));
                    }
                    (lo, hi)
                }
                None => {
                    let v: u32 = fields[2]
                        .parse()
                        .map_err(|_| format!("line {}: bad version", lineno + 1))?;
                    (v, v)
                }
            };
            table.add(DispatchRule {
                service,
                dialect,
                versions,
                extension: fields.get(4).unwrap_or(&"").to_string(),
                daemon: fields[3].to_string(),
            });
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_routes_all_services() {
        let t = DispatchTable::standard();
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 1, ""),
            Some("sfsrwsd")
        );
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadOnly, 1, ""),
            Some("sfsrosd")
        );
        assert_eq!(
            t.dispatch(Service::Auth, Dialect::ReadWrite, 1, ""),
            Some("sfsauthd")
        );
        assert_eq!(t.dispatch(Service::File, Dialect::ReadWrite, 9, ""), None);
    }

    #[test]
    fn old_and_new_versions_coexist() {
        // "Old and new versions of the same protocols can run alongside
        // each other."
        let mut t = DispatchTable::standard();
        t.add(DispatchRule {
            service: Service::File,
            dialect: Dialect::ReadWrite,
            versions: (2, 3),
            daemon: "sfsrwsd-next".into(),
            extension: String::new(),
        });
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 1, ""),
            Some("sfsrwsd")
        );
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 2, ""),
            Some("sfsrwsd-next")
        );
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 3, ""),
            Some("sfsrwsd-next")
        );
    }

    #[test]
    fn extensions_select_experimental_daemons() {
        let mut t = DispatchTable::standard();
        t.add(DispatchRule {
            service: Service::File,
            dialect: Dialect::ReadWrite,
            versions: (1, 1),
            daemon: "sfsrwsd-newcache".into(),
            extension: "newcache".into(),
        });
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 1, "newcache"),
            Some("sfsrwsd-newcache")
        );
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 1, ""),
            Some("sfsrwsd")
        );
    }

    #[test]
    fn first_match_wins_for_overrides() {
        let mut t = DispatchTable::new();
        t.add(DispatchRule {
            service: Service::File,
            dialect: Dialect::ReadWrite,
            versions: (1, 1),
            daemon: "site-override".into(),
            extension: String::new(),
        });
        for r in DispatchTable::standard().rules {
            t.add(r);
        }
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 1, ""),
            Some("site-override")
        );
    }

    #[test]
    fn config_file_parses() {
        let text = "\
# sfssd configuration
file  rw  1-2  sfsrwsd
file  ro  1    sfsrosd
auth  rw  1-1  sfsauthd
file  rw  3-3  sfsrwsd-v3  newcache
";
        let t = DispatchTable::parse(text).unwrap();
        assert_eq!(t.rules.len(), 4);
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 2, ""),
            Some("sfsrwsd")
        );
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadOnly, 1, ""),
            Some("sfsrosd")
        );
        assert_eq!(
            t.dispatch(Service::File, Dialect::ReadWrite, 3, "newcache"),
            Some("sfsrwsd-v3")
        );
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(DispatchTable::parse("file rw").is_err());
        assert!(DispatchTable::parse("mail rw 1 x").is_err());
        assert!(DispatchTable::parse("file xx 1 x").is_err());
        assert!(DispatchTable::parse("file rw 2-1 x").is_err());
        assert!(DispatchTable::parse("file rw one x").is_err());
    }
}
