//! The paper's envisaged extensions (§2.3 footnote, §2.4, §2.5.1): the
//! `ssu` utility, proxy agents for remote login, external-PKI name hooks,
//! and split private keys.

use std::sync::Arc;

use sfs::agent::Agent;
use sfs::sfskey::{combine_key_shares, split_private_key, KeyShare};
use sfs_bench::keys;
use sfs_bench::world::{KeySeeds, World, WorldSpec, UID as ALICE_UID};
use sfs_bignum::XorShiftSource;
use sfs_telemetry::sync::Mutex;

#[test]
fn ssu_maps_root_operations_to_user_agent() {
    // §2.3: "an ssu utility allows a user to map operations performed in
    // a super-user shell to her own agent."
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let file = format!("{}/home/alice/root-edit", server.path().full_path());
    // Without ssu, uid 0's (empty) agent authenticates anonymously and
    // the write to alice's directory fails.
    assert!(client.write_file(0, &file, b"x").is_err());
    client.unmount_all();
    // After ssu, the super-user shell uses alice's agent and her keys.
    client.ssu(ALICE_UID);
    client.write_file(0, &file, b"as alice").unwrap();
    assert_eq!(client.read_file(ALICE_UID, &file).unwrap(), b"as alice");
}

#[test]
fn proxy_agent_forwards_authentication_with_audit_trail() {
    // §2.5.1: "Proxy agents could forward authentication requests to
    // other SFS agents … That way, users can automatically access their
    // files when logging in to a remote machine." The audit trail records
    // "the path of processes and machines through which the request
    // arrived".
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);

    // The home agent holds alice's key (e.g. on her workstation).
    let home_agent = Arc::new(Mutex::new(Agent::new()));
    home_agent.lock().add_key(w.user_key());

    // On the remote machine, a keyless proxy agent forwards to home.
    let mut proxy = Agent::new();
    proxy.set_upstream(home_agent.clone(), "lab-machine.example.net");
    client.set_agent(ALICE_UID, Arc::new(Mutex::new(proxy)));

    let file = format!("{}/home/alice/remote-work", server.path().full_path());
    client.write_file(ALICE_UID, &file, b"via proxy").unwrap();

    // The signature happened at home, with the hop recorded.
    let trail = home_agent.lock().audit_trail().to_vec();
    assert!(!trail.is_empty());
    assert_eq!(trail[0].via, vec!["lab-machine.example.net".to_string()]);
    assert_eq!(trail[0].location, "fs.example.org");
}

#[test]
fn proxy_respects_its_own_blocks() {
    // A proxy enforces its own revocation/blocking policy before
    // forwarding — a compromised remote machine cannot make the home
    // agent sign for a host the proxy's owner blocked.
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let home_agent = Arc::new(Mutex::new(Agent::new()));
    home_agent.lock().add_key(w.user_key());
    let mut proxy = Agent::new();
    proxy.set_upstream(home_agent.clone(), "lab");
    proxy.block_host(server.path().host_id);
    client.set_agent(ALICE_UID, Arc::new(Mutex::new(proxy)));
    let file = format!("{}/home/alice/blocked", server.path().full_path());
    assert!(client.write_file(ALICE_UID, &file, b"x").is_err());
    assert!(
        home_agent.lock().audit_trail().is_empty(),
        "no signature was made"
    );
}

#[test]
fn name_hook_builds_pathnames_from_external_pki() {
    // §2.4: "one might want to use SSL certificates to authenticate SFS
    // servers … an agent that generates self-certifying pathnames from
    // SSL certificates." The hook stands in for the certificate fetch.
    let w = World::build(&WorldSpec::realm(&["shop.example.com"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let sc_path = server.path().full_path();
    let agent = client.agent(ALICE_UID);
    agent.lock().set_name_hook(Box::new(move |name: &str| {
        // "Intercept every request for a file name of the form
        // /sfs/ssl.<domain>" and consult the (mock) certificate store.
        let domain = name.strip_prefix("ssl.")?;
        if domain == "shop.example.com" {
            Some(sc_path.clone())
        } else {
            None
        }
    }));
    assert_eq!(
        client
            .read_file(ALICE_UID, "/sfs/ssl.shop.example.com/public/motd")
            .unwrap(),
        b"welcome to shop.example.com"
    );
    // Unknown domains are not mapped.
    assert!(client
        .read_file(ALICE_UID, "/sfs/ssl.unknown.example/public/motd")
        .is_err());
}

#[test]
fn split_key_requires_both_shares() {
    let mut rng = XorShiftSource::new(0x5117);
    let key = keys::rabin(512, KeySeeds::REALM.user);
    let (share_a, share_b) = split_private_key(&key, &mut rng);
    // Recombination works.
    let back = combine_key_shares(&share_a, &share_b).expect("combine");
    assert_eq!(back.public(), key.public());
    // Either share alone is not the key (and a share with a zero partner
    // is just the pad/masked blob — parsing fails or yields a different
    // key with overwhelming probability).
    let zero = KeyShare {
        bytes: vec![0u8; share_a.bytes.len()],
    };
    match combine_key_shares(&share_a, &zero) {
        None => {}
        Some(k) => assert_ne!(k.public(), key.public()),
    }
    match combine_key_shares(&share_b, &zero) {
        None => {}
        Some(k) => assert_ne!(k.public(), key.public()),
    }
    // Mismatched lengths refused.
    let short = KeyShare {
        bytes: vec![1, 2, 3],
    };
    assert!(combine_key_shares(&share_a, &short).is_none());
}

#[test]
fn split_key_agent_authserver_flow() {
    // The deployment §2.5.1 sketches: the agent stores one share, the
    // authserver the other; login recombines transiently.
    let w = World::build(&WorldSpec {
        clients: 0,
        ..WorldSpec::realm(&["fs.example.org"])
    });
    let server = &w.servers[0];
    let client = w.client(b"world-client");
    let mut rng = XorShiftSource::new(0xABCDE);
    let (agent_share, server_share) = split_private_key(&w.user_key(), &mut rng);
    // The authserver-side share travels as an opaque blob (reusing the
    // encrypted-key slot would be typical; store directly for the test).
    let recombined = combine_key_shares(&agent_share, &server_share).unwrap();
    client.agent(ALICE_UID).lock().add_key(recombined);
    let file = format!("{}/home/alice/split", server.path().full_path());
    client
        .write_file(ALICE_UID, &file, b"two shares, one login")
        .unwrap();
}
