//! Venus tested against a scripted fake transport: the client-side
//! protocol logic (hint management, NotCustodian retries, validation
//! decisions, symlink following) independent of any real server.

use itc_core::config::{CachePolicy, SystemConfig};
use itc_core::proto::{EntryKind, ServerId, VStatus, ViceError, ViceReply, ViceRequest};
use itc_core::venus::{Venus, ViceTransport, WorkstationType};
use itc_cryptbox::derive_key;
use itc_rpc::NodeId;
use itc_sim::{SimTime, TraversalMode, ValidationMode};
use std::cell::RefCell;
use std::collections::VecDeque;

/// A transport that returns scripted replies and records the requests.
struct FakeTransport {
    replies: VecDeque<ViceReply>,
    log: RefCell<Vec<(ServerId, ViceRequest)>>,
}

impl FakeTransport {
    fn new(replies: Vec<ViceReply>) -> FakeTransport {
        FakeTransport {
            replies: replies.into(),
            log: RefCell::new(Vec::new()),
        }
    }

    fn requests(&self) -> Vec<(ServerId, ViceRequest)> {
        self.log.borrow().clone()
    }
}

impl ViceTransport for FakeTransport {
    fn call(
        &mut self,
        _ws: NodeId,
        _user: &str,
        _key: itc_cryptbox::Key,
        server: ServerId,
        req: &ViceRequest,
        at: SimTime,
    ) -> Result<(ViceReply, SimTime), String> {
        self.log.borrow_mut().push((server, req.clone()));
        let reply = self
            .replies
            .pop_front()
            .ok_or_else(|| format!("unscripted request: {req:?}"))?;
        Ok((reply, at + SimTime::from_millis(500)))
    }

    fn nearest(&self, _ws: NodeId, candidates: &[ServerId]) -> ServerId {
        candidates[0]
    }

    fn home_server(&self, _ws: NodeId) -> ServerId {
        ServerId(0)
    }
}

fn venus(validation: ValidationMode) -> Venus {
    let config = SystemConfig {
        cache: CachePolicy::CountLru(50),
        validation,
        ..SystemConfig::prototype(1, 1)
    };
    let mut v = Venus::new(NodeId(9), WorkstationType::Sun, &config);
    v.set_session("u", derive_key("pw", "u"));
    v
}

fn status(path: &str, fid: u64, version: u64, size: u64) -> VStatus {
    VStatus {
        path: path.to_string(),
        fid,
        kind: EntryKind::File,
        size,
        version,
        mtime: 0,
        mode: 0o644,
        owner: 1,
        read_only: false,
    }
}

fn custodian(subtree: &str, server: u32) -> ViceReply {
    ViceReply::Custodian {
        subtree: subtree.to_string(),
        custodian: ServerId(server),
        replicas: vec![],
    }
}

#[test]
fn cold_open_resolves_custodian_then_fetches() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 2),
        ViceReply::Data {
            status: status("/vice/usr/u/f", 7, 1, 3),
            data: b"abc".to_vec().into(),
        },
    ]);
    let h = v.open_read(&mut t, "/vice/usr/u/f").unwrap();
    assert_eq!(v.read(h).unwrap(), b"abc");
    let reqs = t.requests();
    // GetCustodian went to the home server; the fetch went to server 2.
    assert_eq!(reqs[0].0, ServerId(0));
    assert!(matches!(reqs[0].1, ViceRequest::GetCustodian { .. }));
    assert_eq!(reqs[1].0, ServerId(2));
    assert!(matches!(reqs[1].1, ViceRequest::Fetch { .. }));
}

#[test]
fn hints_are_reused_for_paths_under_the_subtree() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 2),
        ViceReply::Data {
            status: status("/vice/usr/u/a", 7, 1, 1),
            data: b"a".to_vec().into(),
        },
        // Second file, same subtree: no GetCustodian needed.
        ViceReply::Data {
            status: status("/vice/usr/u/b", 8, 1, 1),
            data: b"b".to_vec().into(),
        },
    ]);
    v.fetch_file(&mut t, "/vice/usr/u/a").unwrap();
    v.fetch_file(&mut t, "/vice/usr/u/b").unwrap();
    let kinds: Vec<&'static str> = t.requests().iter().map(|(_, r)| r.kind()).collect();
    assert_eq!(kinds, vec!["getcustodian", "fetch", "fetch"]);
}

#[test]
fn stale_hint_is_corrected_by_not_custodian() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 2),
        // Server 2 says: not me (anymore), try 5.
        ViceReply::Error(ViceError::NotCustodian(Some(ServerId(5)))),
        ViceReply::Data {
            status: status("/vice/usr/u/f", 7, 1, 1),
            data: b"x".to_vec().into(),
        },
    ]);
    assert_eq!(v.fetch_file(&mut t, "/vice/usr/u/f").unwrap(), b"x");
    let reqs = t.requests();
    assert_eq!(reqs[1].0, ServerId(2));
    assert_eq!(reqs[2].0, ServerId(5), "retry must follow the hint");
}

#[test]
fn check_on_open_validates_and_refetches_only_when_stale() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 1),
        ViceReply::Data {
            status: status("/vice/usr/u/f", 7, 3, 2),
            data: b"v3".to_vec().into(),
        },
        // Second open: validate says still good.
        ViceReply::Validated {
            valid: true,
            status: None,
        },
        // Third open: stale; then the refetch.
        ViceReply::Validated {
            valid: false,
            status: Some(status("/vice/usr/u/f", 7, 4, 2)),
        },
        ViceReply::Data {
            status: status("/vice/usr/u/f", 7, 4, 2),
            data: b"v4".to_vec().into(),
        },
    ]);
    assert_eq!(v.fetch_file(&mut t, "/vice/usr/u/f").unwrap(), b"v3");
    assert_eq!(v.fetch_file(&mut t, "/vice/usr/u/f").unwrap(), b"v3");
    assert_eq!(v.fetch_file(&mut t, "/vice/usr/u/f").unwrap(), b"v4");
    let kinds: Vec<&'static str> = t.requests().iter().map(|(_, r)| r.kind()).collect();
    assert_eq!(
        kinds,
        vec!["getcustodian", "fetch", "validate", "validate", "fetch"]
    );
    // The validate carried the cached fid and version.
    if let ViceRequest::Validate { fid, version, .. } = &t.requests()[2].1 {
        assert_eq!((*fid, *version), (7, 3));
    } else {
        panic!("expected validate");
    }
    assert_eq!(v.stats().validations, 2);
    assert_eq!(v.cache().stats().hits, 1);
    assert_eq!(v.cache().stats().misses, 2);
}

#[test]
fn callback_mode_trusts_valid_entries_without_traffic() {
    let mut v = venus(ValidationMode::Callback);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 1),
        ViceReply::Data {
            status: status("/vice/usr/u/f", 7, 3, 2),
            data: b"v3".to_vec().into(),
        },
    ]);
    v.fetch_file(&mut t, "/vice/usr/u/f").unwrap();
    // Ten more opens: zero requests.
    for _ in 0..10 {
        assert_eq!(v.fetch_file(&mut t, "/vice/usr/u/f").unwrap(), b"v3");
    }
    assert_eq!(t.requests().len(), 2);

    // A break arrives: the next open refetches.
    v.on_callback_break("/vice/usr/u/f");
    let mut t2 = FakeTransport::new(vec![ViceReply::Data {
        status: status("/vice/usr/u/f", 7, 4, 2),
        data: b"v4".to_vec().into(),
    }]);
    assert_eq!(v.fetch_file(&mut t2, "/vice/usr/u/f").unwrap(), b"v4");
    assert_eq!(t2.requests().len(), 1);
}

#[test]
fn read_only_files_never_revalidate() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut ro = status("/vice/sys/bin/cc", 7, 1, 4);
    ro.read_only = true;
    let mut t = FakeTransport::new(vec![
        custodian("/vice/sys", 1),
        ViceReply::Data {
            status: ro,
            data: b"exec".to_vec().into(),
        },
    ]);
    v.fetch_file(&mut t, "/vice/sys/bin/cc").unwrap();
    for _ in 0..5 {
        v.fetch_file(&mut t, "/vice/sys/bin/cc").unwrap();
    }
    // Even in check-on-open mode: "cached copies can never be invalid".
    assert_eq!(t.requests().len(), 2);
    assert_eq!(v.stats().validations, 0);
}

#[test]
fn vice_symlinks_are_followed_client_side() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 1),
        ViceReply::Link("/vice/pkg/real".to_string()),
        custodian("/vice/pkg", 2),
        ViceReply::Data {
            status: status("/vice/pkg/real", 9, 1, 4),
            data: b"real".to_vec().into(),
        },
    ]);
    assert_eq!(v.fetch_file(&mut t, "/vice/usr/u/link").unwrap(), b"real");
    // The target fetch went to the *target's* custodian.
    let reqs = t.requests();
    assert_eq!(reqs[3].0, ServerId(2));
}

#[test]
fn store_on_close_sends_whole_file_and_updates_cache() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 1),
        // open_write on a new file: fetch fails NoSuchFile.
        ViceReply::Error(ViceError::NoSuchFile("/vice/usr/u/new".into())),
        // close: the store.
        ViceReply::Status(status("/vice/usr/u/new", 12, 1, 5)),
    ]);
    let h = v.open_write(&mut t, "/vice/usr/u/new").unwrap();
    v.write(h, b"12345".to_vec()).unwrap();
    v.close(&mut t, h).unwrap();
    if let ViceRequest::Store { data, .. } = &t.requests()[2].1 {
        assert_eq!(data, b"12345");
    } else {
        panic!("expected store, got {:?}", t.requests()[2].1);
    }
    // The cache now holds the stored copy with the server's status.
    let e = v.cache().peek("/vice/usr/u/new").unwrap();
    assert_eq!(e.status.fid, 12);
    assert_eq!(e.data, b"12345");
}

#[test]
fn clean_close_sends_nothing() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 1),
        ViceReply::Data {
            status: status("/vice/usr/u/f", 7, 1, 1),
            data: b"x".to_vec().into(),
        },
    ]);
    let h = v.open_read(&mut t, "/vice/usr/u/f").unwrap();
    let n = t.requests().len();
    v.close(&mut t, h).unwrap();
    assert_eq!(t.requests().len(), n, "closing an unmodified file is free");
}

#[test]
fn writes_through_read_only_handles_are_rejected() {
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 1),
        ViceReply::Data {
            status: status("/vice/usr/u/f", 7, 1, 1),
            data: b"x".to_vec().into(),
        },
    ]);
    let h = v.open_read(&mut t, "/vice/usr/u/f").unwrap();
    assert!(v.write(h, b"nope".to_vec()).is_err());
    assert!(v.append(h, b"nope").is_err());
    // Bad handles are rejected too.
    assert!(v.read(99).is_err());
    assert!(v.close(&mut t, 99).is_err());
}

#[test]
fn not_logged_in_blocks_vice_but_not_local() {
    let config = SystemConfig {
        cache: CachePolicy::CountLru(10),
        ..SystemConfig::prototype(1, 1)
    };
    let mut v = Venus::new(NodeId(1), WorkstationType::Sun, &config);
    let mut t = FakeTransport::new(vec![]);
    assert!(v.fetch_file(&mut t, "/vice/usr/u/f").is_err());
    // Local files still work without a session.
    v.store_file(&mut t, "/tmp/scratch", b"local".to_vec())
        .unwrap();
    assert_eq!(v.fetch_file(&mut t, "/tmp/scratch").unwrap(), b"local");
    assert!(t.requests().is_empty());
}

#[test]
fn client_side_traversal_fetches_and_caches_directories() {
    let config = SystemConfig {
        cache: CachePolicy::CountLru(50),
        validation: ValidationMode::Callback,
        traversal: TraversalMode::ClientSide,
        ..SystemConfig::prototype(1, 1)
    };
    let mut v = Venus::new(NodeId(9), WorkstationType::Sun, &config);
    v.set_session("u", derive_key("pw", "u"));
    let dir_status = |p: &str, fid| VStatus {
        kind: EntryKind::Dir,
        ..status(p, fid, 1, 10)
    };
    let mut t = FakeTransport::new(vec![
        custodian("/vice/usr/u", 1),
        // Directory fetches for /vice/usr and /vice/usr/u...
        ViceReply::Data {
            status: dir_status("/vice/usr", 2),
            data: b"du\n".to_vec().into(),
        },
        ViceReply::Data {
            status: dir_status("/vice/usr/u", 3),
            data: b"ff\n".to_vec().into(),
        },
        // ...then the file itself.
        ViceReply::Data {
            status: status("/vice/usr/u/f", 7, 1, 1),
            data: b"x".to_vec().into(),
        },
    ]);
    v.fetch_file(&mut t, "/vice/usr/u/f").unwrap();
    let kinds: Vec<&'static str> = t.requests().iter().map(|(_, r)| r.kind()).collect();
    assert_eq!(kinds, vec!["getcustodian", "fetch", "fetch", "fetch"]);

    // Second file under the same directories: the cached dirs are reused.
    let mut t2 = FakeTransport::new(vec![ViceReply::Data {
        status: status("/vice/usr/u/g", 8, 1, 1),
        data: b"y".to_vec().into(),
    }]);
    v.fetch_file(&mut t2, "/vice/usr/u/g").unwrap();
    assert_eq!(t2.requests().len(), 1, "directories must be cached");
}

/// A callback-mode Venus holding a valid cached copy of each of `paths`.
fn venus_caching(paths: &[&str]) -> Venus {
    let mut v = venus(ValidationMode::Callback);
    let mut replies = vec![custodian("/vice/usr", 1)];
    replies.extend(paths.iter().zip(1..).map(|(p, fid)| ViceReply::Data {
        status: status(p, fid, 1, 1),
        data: b"x".to_vec().into(),
    }));
    let mut t = FakeTransport::new(replies);
    for p in paths {
        v.fetch_file(&mut t, p).unwrap();
    }
    v
}

#[test]
fn a_name_space_mutation_drops_the_changed_names_and_invalidates_their_parents() {
    use itc_core::venus::VenusError;

    type Op = fn(&mut Venus, &mut FakeTransport) -> Result<(), VenusError>;
    // The names an op changes, then their parents.
    type Names = (&'static [&'static str], &'static [&'static str]);
    let made = ViceReply::Status(status("/vice/usr/u/x", 9, 1, 0));
    let one: Names = (&["/vice/usr/u/x"], &["/vice/usr/u"]);
    let cases: [(&str, Op, ViceReply, Names); 5] = [
        ("mkdir", |v, t| v.mkdir(t, "/vice/usr/u/x"), made, one),
        (
            "unlink",
            |v, t| v.unlink(t, "/vice/usr/u/x"),
            ViceReply::Ok,
            one,
        ),
        (
            "rmdir",
            |v, t| v.rmdir(t, "/vice/usr/u/x"),
            ViceReply::Ok,
            one,
        ),
        (
            "symlink",
            |v, t| v.symlink(t, "/vice/usr/u/x", "keep"),
            ViceReply::Ok,
            one,
        ),
        (
            "rename",
            |v, t| v.rename(t, "/vice/usr/u/x", "/vice/usr/w/y"),
            ViceReply::Ok,
            (
                &["/vice/usr/u/x", "/vice/usr/w/y"],
                &["/vice/usr/u", "/vice/usr/w"],
            ),
        ),
    ];
    let bystander = "/vice/usr/u/keep";
    for (name, op, reply, (changed, parents)) in cases {
        let cached: Vec<&str> = parents.iter().chain(changed).copied().collect();
        let mut v = venus_caching(&[&cached[..], &[bystander]].concat());
        op(&mut v, &mut FakeTransport::new(vec![reply])).unwrap();
        for path in changed {
            assert!(v.cache().peek(path).is_none(), "{name} kept {path}");
        }
        for dir in parents {
            let e = v.cache().peek(dir).expect("a parent stays cached");
            assert!(!e.valid, "{name} left {dir}'s listing valid");
        }
        let e = v.cache().peek(bystander).expect("untouched");
        assert!(e.valid, "{name} touched a name it did not change");
    }
}

#[test]
fn changes_names_what_a_successful_reply_makes_stale() {
    use itc_core::protect::AccessList;

    let p = || "/vice/a".to_string();
    let none = [None, None];
    let this = [Some("/vice/a"), None];
    let table: Vec<(ViceRequest, [Option<&str>; 2])> = vec![
        (ViceRequest::GetCustodian { path: p() }, none),
        (ViceRequest::Fetch { path: p() }, none),
        (
            ViceRequest::Store {
                path: p(),
                data: b"x".to_vec().into(),
            },
            this,
        ),
        (ViceRequest::Remove { path: p() }, this),
        (ViceRequest::GetStatus { path: p() }, none),
        (
            ViceRequest::SetMode {
                path: p(),
                mode: 0o600,
            },
            this,
        ),
        (
            ViceRequest::Validate {
                path: p(),
                fid: 1,
                version: 1,
            },
            none,
        ),
        (ViceRequest::MakeDir { path: p() }, this),
        (ViceRequest::RemoveDir { path: p() }, this),
        (
            ViceRequest::Rename {
                from: p(),
                to: "/vice/b".into(),
            },
            [Some("/vice/a"), Some("/vice/b")],
        ),
        (ViceRequest::ListDir { path: p() }, none),
        (ViceRequest::GetAcl { path: p() }, none),
        (
            ViceRequest::SetAcl {
                path: p(),
                acl: AccessList::new(),
            },
            none,
        ),
        (
            ViceRequest::MakeSymlink {
                path: p(),
                target: "b".into(),
            },
            this,
        ),
        (ViceRequest::ReadLink { path: p() }, none),
        (
            ViceRequest::SetLock {
                path: p(),
                exclusive: true,
            },
            none,
        ),
        (ViceRequest::ReleaseLock { path: p() }, none),
    ];
    let kinds: Vec<&str> = table.iter().map(|(r, _)| r.kind()).collect();
    assert_eq!(kinds, ViceRequest::KINDS, "one row per request kind");
    for (req, want) in &table {
        assert_eq!(req.changes(), *want, "{}", req.kind());
        // Only a mutation can make a cached copy stale.
        assert!(req.is_mutation() || *want == none, "{}", req.kind());
    }
}

/// A transport that resolves custodians normally but answers every other
/// request with a reply of the wrong shape: `Ok` to reads (none expects
/// it), an empty `Listing` to mutations (none expects that).
struct WrongShape {
    last: Option<&'static str>,
}

impl ViceTransport for WrongShape {
    fn call(
        &mut self,
        _ws: NodeId,
        _user: &str,
        _key: itc_cryptbox::Key,
        _server: ServerId,
        req: &ViceRequest,
        at: SimTime,
    ) -> Result<(ViceReply, SimTime), String> {
        self.last = Some(req.kind());
        let reply = match req {
            ViceRequest::GetCustodian { .. } => custodian("/vice/usr/u", 1),
            req if req.is_mutation() => ViceReply::Listing(vec![]),
            _ => ViceReply::Ok,
        };
        Ok((reply, at + SimTime::from_millis(500)))
    }

    fn nearest(&self, _ws: NodeId, candidates: &[ServerId]) -> ServerId {
        candidates[0]
    }

    fn home_server(&self, _ws: NodeId) -> ServerId {
        ServerId(0)
    }
}

#[test]
fn a_reply_of_the_wrong_shape_is_a_protocol_mismatch_naming_the_request() {
    use itc_core::protect::AccessList;
    use itc_core::venus::VenusError;

    // Setup against a well-behaved server: `g` is cached (so the next
    // open validates it) and `h` is an open, modified handle on a new
    // file (so closing it stores).
    let mut v = venus(ValidationMode::CheckOnOpen);
    let mut good = FakeTransport::new(vec![
        custodian("/vice/usr/u", 1),
        ViceReply::Data {
            status: status("/vice/usr/u/g", 7, 1, 1),
            data: b"g".to_vec().into(),
        },
        ViceReply::Error(ViceError::NoSuchFile("/vice/usr/u/new".into())),
    ]);
    v.fetch_file(&mut good, "/vice/usr/u/g").unwrap();
    let h = v.open_write(&mut good, "/vice/usr/u/new").unwrap();
    v.write(h, b"new".to_vec()).unwrap();

    type Op = Box<dyn Fn(&mut Venus, &mut WrongShape) -> Result<(), VenusError>>;
    let ops: Vec<(&str, Op)> = vec![
        (
            "fetch",
            Box::new(|v, t| v.open_read(t, "/vice/usr/u/f").map(drop)),
        ),
        (
            "validate",
            Box::new(|v, t| v.open_read(t, "/vice/usr/u/g").map(drop)),
        ),
        ("store", Box::new(move |v, t| v.close(t, h))),
        (
            "getstatus",
            Box::new(|v, t| v.stat(t, "/vice/usr/u/f").map(drop)),
        ),
        (
            "listdir",
            Box::new(|v, t| v.readdir(t, "/vice/usr/u").map(drop)),
        ),
        ("makedir", Box::new(|v, t| v.mkdir(t, "/vice/usr/u/d"))),
        ("remove", Box::new(|v, t| v.unlink(t, "/vice/usr/u/g"))),
        ("removedir", Box::new(|v, t| v.rmdir(t, "/vice/usr/u/d"))),
        (
            "rename",
            Box::new(|v, t| v.rename(t, "/vice/usr/u/g", "/vice/usr/u/k")),
        ),
        (
            "makesymlink",
            Box::new(|v, t| v.symlink(t, "/vice/usr/u/l", "g")),
        ),
        (
            "getacl",
            Box::new(|v, t| v.get_acl(t, "/vice/usr/u").map(drop)),
        ),
        (
            "setacl",
            Box::new(|v, t| v.set_acl(t, "/vice/usr/u", AccessList::new())),
        ),
        ("setlock", Box::new(|v, t| v.lock(t, "/vice/usr/u/g", true))),
        ("releaselock", Box::new(|v, t| v.unlock(t, "/vice/usr/u/g"))),
    ];

    let mut t = WrongShape { last: None };
    for (kind, op) in &ops {
        let before = (v.cache().len(), v.cache().stats(), v.dirty_count());
        let entry = |v: &Venus| {
            let e = v.cache().peek("/vice/usr/u/g").expect("still cached");
            (e.valid, e.status.clone(), e.data.clone())
        };
        let cached = entry(&v);
        let started = v.now();
        assert_eq!(op(&mut v, &mut t), Err(VenusError::ProtocolMismatch(kind)));
        assert_eq!(t.last, Some(*kind), "the label is the request's own");
        let after = (v.cache().len(), v.cache().stats(), v.dirty_count());
        assert_eq!(after, before, "{kind} touched the cache or dirty set");
        assert_eq!(entry(&v), cached, "{kind} touched the cached copy");
        assert!(
            v.now() >= started + SimTime::from_millis(500),
            "{kind} must still pay for the call"
        );
    }
}
