//! Golden wire frames: every [`ControlRequest`] and [`ControlResponse`]
//! variant, as JSON text and as binary bytes, against literals recorded
//! from the commit before the hand-written `Deserialize` impls were
//! replaced by derives. Clients that hand-roll frames (the benchmark's
//! does) depend on these bytes, so a serde change that alters any of
//! them must fail here, not in a measurement run.
//!
//! The second half pins what the wire no longer accepts: the pre-rename
//! `Suspend`/`Resume` tags and a policy-less `Migrate` are typed protocol
//! errors in both framings — and over TCP an answer at the request's id,
//! not a dropped connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use vital::checkpoint::{ChannelCheckpoint, PlacementMeta, TenantCheckpoint};
use vital::interface::{
    ApiError, ChannelSnapshot, ChannelSpec, ErrorCode, FormatVersion, LinkClass,
};
use vital::periph::{MemoryImage, PageImage, TenantId};
use vital::runtime::{
    ControlRequest, ControlResponse, DeployRequest, DeploySummary, EvacuationSummary,
    FailureSummary, FpgaStatus, MigratePolicy, MigrationSummary, RuntimeConfig, ScaleSummary,
    StatusSummary, SuspendSummary, SystemController,
};
use vital::service::{
    encode_frame, read_frame, Envelope, FrameDecoder, RequestEnvelope, ResponseEnvelope,
    ServiceConfig, ServiceError, ServiceServer, Vitald, WireFormat, MAX_FRAME_BYTES,
};

fn capsule() -> TenantCheckpoint {
    TenantCheckpoint {
        tenant: TenantId::new(7),
        placement: PlacementMeta {
            app: "lenet-S".into(),
            needed_blocks: 2,
            clock: 96,
            primary_fpga: 1,
            fpgas_spanned: 2,
            hop_cost: 1,
            requested_gbps: 38.4,
        },
        channels: vec![ChannelCheckpoint {
            from_block: 0,
            to_block: 1,
            snapshot: ChannelSnapshot {
                spec: ChannelSpec {
                    width_bits: 64,
                    depth: 8,
                    latency_cycles: 4,
                    serialization_interval: 1,
                    link: LinkClass::InterFpga,
                },
                drain_cycles: 3,
                fifo_ages: vec![5, 2],
                delivered: 11,
                latency_sum: 70,
            },
        }],
        memory: MemoryImage {
            page_size: 4,
            quota_bytes: 16,
            pages: vec![PageImage {
                vpn: 2,
                bytes: vec![0xde, 0xad, 0xbe, 0xef],
            }],
            reads: 1,
            writes: 2,
            faults: 0,
        },
    }
}

fn migration(policy: MigratePolicy) -> MigrationSummary {
    MigrationSummary {
        tenant: 7,
        fpgas_before: 2,
        fpgas_after: 1,
        reconfig_us: 24_600,
        hop_cost_before: 1,
        hop_cost_after: 0,
        policy,
    }
}

fn deployed() -> DeploySummary {
    DeploySummary {
        tenant: 7,
        app: "lenet-S".into(),
        blocks: 2,
        fpgas: 1,
        primary_fpga: 3,
        reconfig_us: 24_600,
        granted_gbps: 38.4,
    }
}

/// One value of every request variant (and every shape a variant's
/// payload takes: both backends, a restore capsule, every policy).
fn requests() -> Vec<ControlRequest> {
    vec![
        ControlRequest::deploy("lenet-S"),
        ControlRequest::Deploy(DeployRequest::app("lenet-S").with_quota_bytes(1 << 20)),
        ControlRequest::Deploy(DeployRequest::isa("vgg-L")),
        ControlRequest::Deploy(DeployRequest::restore(capsule())),
        ControlRequest::Undeploy { tenant: 7 },
        ControlRequest::Checkpoint { tenant: 7 },
        ControlRequest::Restore { tenant: 7 },
        ControlRequest::Migrate {
            tenant: 7,
            policy: MigratePolicy::SameGeometry,
        },
        ControlRequest::Migrate {
            tenant: 7,
            policy: MigratePolicy::Portable,
        },
        ControlRequest::Migrate {
            tenant: 7,
            policy: MigratePolicy::Auto,
        },
        ControlRequest::Evacuate { fpga: 2 },
        ControlRequest::Fail { fpga: 2 },
        ControlRequest::Recover { fpga: 2 },
        ControlRequest::Defragment,
        ControlRequest::Status,
        ControlRequest::Prepare {
            app: "lenet-S".into(),
        },
        ControlRequest::Scale {
            tenant: 7,
            tiles: 12,
        },
    ]
}

/// One value of every response variant.
fn responses() -> Vec<ControlResponse> {
    vec![
        ControlResponse::Deployed(deployed()),
        ControlResponse::Undeployed { tenant: 7 },
        ControlResponse::Suspended(SuspendSummary {
            tenant: 7,
            channels: 1,
            flits: 2,
            dram_bytes: 4,
            capsule_version: FormatVersion::CURRENT,
            portable: true,
            scan_bits: 12_288,
        }),
        ControlResponse::Resumed(deployed()),
        ControlResponse::Migrated(migration(MigratePolicy::Portable)),
        ControlResponse::Evacuated(EvacuationSummary {
            fpga: 2,
            migrated: vec![migration(MigratePolicy::SameGeometry)],
            unmoved: vec![9],
        }),
        ControlResponse::FpgaFailed(FailureSummary {
            fpga: 2,
            migrated: vec![migration(MigratePolicy::SameGeometry)],
            torn_down: vec![9],
        }),
        ControlResponse::Recovered { fpga: 2 },
        ControlResponse::Defragmented {
            migrations: vec![migration(MigratePolicy::SameGeometry)],
        },
        ControlResponse::Status(StatusSummary {
            fpgas: vec![FpgaStatus {
                fpga: 0,
                health: "Online".into(),
                blocks: vec![7, 0],
                free: 1,
            }],
            total_free: 1,
            live_tenants: vec![7],
            suspended_tenants: vec![8],
            fpga_failures: 1,
            fpga_recoveries: 1,
            evacuations: 0,
            tenants_migrated: 2,
            tenants_torn_down: 0,
            isa_tenants: vec![9],
            isa_tiles_total: 60,
            isa_tiles_free: 48,
        }),
        ControlResponse::Prepared {
            app: "lenet-S".into(),
            cache_hit: false,
        },
        ControlResponse::Scaled(ScaleSummary {
            tenant: 7,
            tiles_before: 4,
            tiles_after: 12,
            realloc_us: 80,
        }),
        ControlResponse::Err(ApiError::new(ErrorCode::UnknownTenant, "no tenant 7")),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// The payload of one encoded frame (length prefix checked and stripped).
fn payload<T: Envelope + Serialize>(env: &T, format: WireFormat) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(env, format, MAX_FRAME_BYTES, &mut frame).expect("encode");
    let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
    assert_eq!(len, frame.len() - 4, "length prefix covers the payload");
    frame.split_off(4)
}

/// `(JSON payload, binary payload as hex)` per entry of [`requests`]; the
/// envelope id is `100 + index`.
const REQUEST_FRAMES: &[(&str, &str)] = &[
    (
        r#"{"id":100,"req":{"Deploy":{"app":"lenet-S","quota_bytes":0,"restore":null,"backend":"Fabric"}}}"#,
        "0108020269640464037265710801064465706c6f7908040361707006076c656e65742d530b71756f74615f6279746573040007726573746f726500076261636b656e640606466162726963",
    ),
    (
        r#"{"id":101,"req":{"Deploy":{"app":"lenet-S","quota_bytes":1048576,"restore":null,"backend":"Fabric"}}}"#,
        "0108020269640465037265710801064465706c6f7908040361707006076c656e65742d530b71756f74615f62797465730480804007726573746f726500076261636b656e640606466162726963",
    ),
    (
        r#"{"id":102,"req":{"Deploy":{"app":"vgg-L","quota_bytes":0,"restore":null,"backend":"Isa"}}}"#,
        "0108020269640466037265710801064465706c6f7908040361707006057667672d4c0b71756f74615f6279746573040007726573746f726500076261636b656e640603497361",
    ),
    (
        r#"{"id":103,"req":{"Deploy":{"app":"lenet-S","quota_bytes":0,"restore":{"tenant":7,"placement":{"app":"lenet-S","needed_blocks":2,"clock":96,"primary_fpga":1,"fpgas_spanned":2,"hop_cost":1,"requested_gbps":38.4},"channels":[{"from_block":0,"to_block":1,"snapshot":{"spec":{"width_bits":64,"depth":8,"latency_cycles":4,"serialization_interval":1,"link":"InterFpga"},"drain_cycles":3,"fifo_ages":[5,2],"delivered":11,"latency_sum":70}}],"memory":{"page_size":4,"quota_bytes":16,"pages":[{"vpn":2,"bytes":[222,173,190,239]}],"reads":1,"writes":2,"faults":0}},"backend":"Fabric"}}}"#,
        "0108020269640467037265710801064465706c6f7908040361707006076c656e65742d530b71756f74615f6279746573040007726573746f726508040674656e616e74040709706c6163656d656e7408070361707006076c656e65742d530d6e65656465645f626c6f636b73040205636c6f636b04600c7072696d6172795f6670676104010d66706761735f7370616e6e6564040208686f705f636f737404010e7265717565737465645f67627073053333333333334340086368616e6e656c73070108030a66726f6d5f626c6f636b040008746f5f626c6f636b040108736e617073686f740805047370656308050a77696474685f62697473044005646570746804080e6c6174656e63795f6379636c657304041673657269616c697a6174696f6e5f696e74657276616c0401046c696e6b0609496e746572467067610c647261696e5f6379636c65730403096669666f5f616765730702040504020964656c697665726564040b0b6c6174656e63795f73756d0446066d656d6f7279080609706167655f73697a6504040b71756f74615f62797465730410057061676573070108020376706e0402056279746573070404de0104ad0104be0104ef010572656164730401067772697465730402066661756c74730400076261636b656e640606466162726963",
    ),
    (
        r#"{"id":104,"req":{"Undeploy":{"tenant":7}}}"#,
        "010802026964046803726571080108556e6465706c6f7908010674656e616e740407",
    ),
    (
        r#"{"id":105,"req":{"Checkpoint":{"tenant":7}}}"#,
        "01080202696404690372657108010a436865636b706f696e7408010674656e616e740407",
    ),
    (
        r#"{"id":106,"req":{"Restore":{"tenant":7}}}"#,
        "010802026964046a03726571080107526573746f726508010674656e616e740407",
    ),
    (
        r#"{"id":107,"req":{"Migrate":{"tenant":7,"policy":"SameGeometry"}}}"#,
        "010802026964046b037265710801074d69677261746508020674656e616e74040706706f6c696379060c53616d6547656f6d65747279",
    ),
    (
        r#"{"id":108,"req":{"Migrate":{"tenant":7,"policy":"Portable"}}}"#,
        "010802026964046c037265710801074d69677261746508020674656e616e74040706706f6c6963790608506f727461626c65",
    ),
    (
        r#"{"id":109,"req":{"Migrate":{"tenant":7,"policy":"Auto"}}}"#,
        "010802026964046d037265710801074d69677261746508020674656e616e74040706706f6c69637906044175746f",
    ),
    (
        r#"{"id":110,"req":{"Evacuate":{"fpga":2}}}"#,
        "010802026964046e037265710801084576616375617465080104667067610402",
    ),
    (
        r#"{"id":111,"req":{"Fail":{"fpga":2}}}"#,
        "010802026964046f037265710801044661696c080104667067610402",
    ),
    (
        r#"{"id":112,"req":{"Recover":{"fpga":2}}}"#,
        "0108020269640470037265710801075265636f766572080104667067610402",
    ),
    (
        r#"{"id":113,"req":"Defragment"}"#,
        "010802026964047103726571060a4465667261676d656e74",
    ),
    (
        r#"{"id":114,"req":"Status"}"#,
        "0108020269640472037265710606537461747573",
    ),
    (
        r#"{"id":115,"req":{"Prepare":{"app":"lenet-S"}}}"#,
        "0108020269640473037265710801075072657061726508010361707006076c656e65742d53",
    ),
    (
        r#"{"id":116,"req":{"Scale":{"tenant":7,"tiles":12}}}"#,
        "0108020269640474037265710801055363616c6508020674656e616e7404070574696c6573040c",
    ),
];

/// `(JSON payload, binary payload as hex)` per entry of [`responses`]; the
/// envelope id is `200 + index`.
const RESPONSE_FRAMES: &[(&str, &str)] = &[
    (
        r#"{"id":200,"resp":{"Deployed":{"tenant":7,"app":"lenet-S","blocks":2,"fpgas":1,"primary_fpga":3,"reconfig_us":24600,"granted_gbps":38.4}}}"#,
        "02080202696404c80104726573700801084465706c6f79656408070674656e616e7404070361707006076c656e65742d5306626c6f636b73040205667067617304010c7072696d6172795f6670676104030b7265636f6e6669675f75730498c0010c6772616e7465645f67627073053333333333334340",
    ),
    (
        r#"{"id":201,"resp":{"Undeployed":{"tenant":7}}}"#,
        "02080202696404c901047265737008010a556e6465706c6f79656408010674656e616e740407",
    ),
    (
        r#"{"id":202,"resp":{"Suspended":{"tenant":7,"channels":1,"flits":2,"dram_bytes":4,"capsule_version":1,"portable":true,"scan_bits":12288}}}"#,
        "02080202696404ca01047265737008010953757370656e64656408070674656e616e740407086368616e6e656c73040105666c69747304020a6472616d5f627974657304040f63617073756c655f76657273696f6e040108706f727461626c6502097363616e5f62697473048060",
    ),
    (
        r#"{"id":203,"resp":{"Resumed":{"tenant":7,"app":"lenet-S","blocks":2,"fpgas":1,"primary_fpga":3,"reconfig_us":24600,"granted_gbps":38.4}}}"#,
        "02080202696404cb010472657370080107526573756d656408070674656e616e7404070361707006076c656e65742d5306626c6f636b73040205667067617304010c7072696d6172795f6670676104030b7265636f6e6669675f75730498c0010c6772616e7465645f67627073053333333333334340",
    ),
    (
        r#"{"id":204,"resp":{"Migrated":{"tenant":7,"fpgas_before":2,"fpgas_after":1,"reconfig_us":24600,"hop_cost_before":1,"hop_cost_after":0,"policy":"Portable"}}}"#,
        "02080202696404cc0104726573700801084d6967726174656408070674656e616e7404070c66706761735f6265666f726504020b66706761735f616674657204010b7265636f6e6669675f75730498c0010f686f705f636f73745f6265666f726504010e686f705f636f73745f6166746572040006706f6c6963790608506f727461626c65",
    ),
    (
        r#"{"id":205,"resp":{"Evacuated":{"fpga":2,"migrated":[{"tenant":7,"fpgas_before":2,"fpgas_after":1,"reconfig_us":24600,"hop_cost_before":1,"hop_cost_after":0,"policy":"SameGeometry"}],"unmoved":[9]}}}"#,
        "02080202696404cd010472657370080109457661637561746564080304667067610402086d69677261746564070108070674656e616e7404070c66706761735f6265666f726504020b66706761735f616674657204010b7265636f6e6669675f75730498c0010f686f705f636f73745f6265666f726504010e686f705f636f73745f6166746572040006706f6c696379060c53616d6547656f6d6574727907756e6d6f76656407010409",
    ),
    (
        r#"{"id":206,"resp":{"FpgaFailed":{"fpga":2,"migrated":[{"tenant":7,"fpgas_before":2,"fpgas_after":1,"reconfig_us":24600,"hop_cost_before":1,"hop_cost_after":0,"policy":"SameGeometry"}],"torn_down":[9]}}}"#,
        "02080202696404ce01047265737008010a467067614661696c6564080304667067610402086d69677261746564070108070674656e616e7404070c66706761735f6265666f726504020b66706761735f616674657204010b7265636f6e6669675f75730498c0010f686f705f636f73745f6265666f726504010e686f705f636f73745f6166746572040006706f6c696379060c53616d6547656f6d6574727909746f726e5f646f776e07010409",
    ),
    (
        r#"{"id":207,"resp":{"Recovered":{"fpga":2}}}"#,
        "02080202696404cf0104726573700801095265636f7665726564080104667067610402",
    ),
    (
        r#"{"id":208,"resp":{"Defragmented":{"migrations":[{"tenant":7,"fpgas_before":2,"fpgas_after":1,"reconfig_us":24600,"hop_cost_before":1,"hop_cost_after":0,"policy":"SameGeometry"}]}}}"#,
        "02080202696404d001047265737008010c4465667261676d656e74656408010a6d6967726174696f6e73070108070674656e616e7404070c66706761735f6265666f726504020b66706761735f616674657204010b7265636f6e6669675f75730498c0010f686f705f636f73745f6265666f726504010e686f705f636f73745f6166746572040006706f6c696379060c53616d6547656f6d65747279",
    ),
    (
        r#"{"id":209,"resp":{"Status":{"fpgas":[{"fpga":0,"health":"Online","blocks":[7,0],"free":1}],"total_free":1,"live_tenants":[7],"suspended_tenants":[8],"fpga_failures":1,"fpga_recoveries":1,"evacuations":0,"tenants_migrated":2,"tenants_torn_down":0,"isa_tenants":[9],"isa_tiles_total":60,"isa_tiles_free":48}}}"#,
        "02080202696404d1010472657370080106537461747573080c0566706761730701080404667067610400066865616c746806064f6e6c696e6506626c6f636b73070204070400046672656504010a746f74616c5f6672656504010c6c6976655f74656e616e7473070104071173757370656e6465645f74656e616e7473070104080d667067615f6661696c7572657304010f667067615f7265636f76657269657304010b65766163756174696f6e7304001074656e616e74735f6d6967726174656404021174656e616e74735f746f726e5f646f776e04000b6973615f74656e616e7473070104090f6973615f74696c65735f746f74616c043c0e6973615f74696c65735f667265650430",
    ),
    (
        r#"{"id":210,"resp":{"Prepared":{"app":"lenet-S","cache_hit":false}}}"#,
        "02080202696404d2010472657370080108507265706172656408020361707006076c656e65742d530963616368655f68697401",
    ),
    (
        r#"{"id":211,"resp":{"Scaled":{"tenant":7,"tiles_before":4,"tiles_after":12,"realloc_us":80}}}"#,
        "02080202696404d30104726573700801065363616c656408040674656e616e7404070c74696c65735f6265666f726504040b74696c65735f6166746572040c0a7265616c6c6f635f75730450",
    ),
    (
        r#"{"id":212,"resp":{"Err":{"code":"UnknownTenant","message":"no tenant 7","retry_after_ms":null}}}"#,
        "02080202696404d4010472657370080103457272080304636f6465060d556e6b6e6f776e54656e616e74076d657373616765060b6e6f2074656e616e7420370e72657472795f61667465725f6d7300",
    ),
];

/// Encoding `env` yields exactly the golden bytes, and the golden bytes
/// decode back to `env`, in both framings.
fn check<T: Envelope + Serialize + PartialEq + std::fmt::Debug>(env: &T, json: &str, bin: &str) {
    assert_eq!(
        String::from_utf8(payload(env, WireFormat::Json)).expect("JSON is UTF-8"),
        json
    );
    assert_eq!(hex(&payload(env, WireFormat::Binary)), bin, "{json}");
    for (golden, format) in [
        (json.as_bytes().to_vec(), WireFormat::Json),
        (unhex(bin), WireFormat::Binary),
    ] {
        let mut frame = (golden.len() as u32).to_be_bytes().to_vec();
        frame.extend(golden);
        let (back, got): (T, _) =
            read_frame(&mut frame.as_slice(), MAX_FRAME_BYTES).expect("golden frame decodes");
        assert_eq!(&back, env);
        assert_eq!(got, format);
    }
}

#[test]
fn every_request_variant_matches_its_golden_frames() {
    let reqs = requests();
    assert_eq!(reqs.len(), REQUEST_FRAMES.len());
    for (i, (req, (json, bin))) in reqs.into_iter().zip(REQUEST_FRAMES).enumerate() {
        let id = 100 + i as u64;
        check(&RequestEnvelope { id, req }, json, bin);
    }
}

#[test]
fn every_response_variant_matches_its_golden_frames() {
    let resps = responses();
    assert_eq!(resps.len(), RESPONSE_FRAMES.len());
    for (i, (resp, (json, bin))) in resps.into_iter().zip(RESPONSE_FRAMES).enumerate() {
        let id = 200 + i as u64;
        check(&ResponseEnvelope { id, resp }, json, bin);
    }
}

/// The request shapes clients sent before the `Checkpoint`/`Restore`
/// rename; no current client does, and the server no longer maps them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum LegacyRequest {
    Suspend { tenant: u64 },
    Resume { tenant: u64 },
    Migrate { tenant: u64 },
    Status,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LegacyEnvelope {
    id: u64,
    req: LegacyRequest,
}

impl Envelope for LegacyEnvelope {
    const OPCODE: u8 = 0x01;
}

fn legacy_frames() -> Vec<(u64, Vec<u8>)> {
    let reqs = [
        LegacyRequest::Suspend { tenant: 3 },
        LegacyRequest::Resume { tenant: 3 },
        LegacyRequest::Migrate { tenant: 3 },
    ];
    let mut frames = Vec::new();
    for format in [WireFormat::Json, WireFormat::Binary] {
        for req in reqs.clone() {
            let id = 1 + frames.len() as u64;
            let mut frame = Vec::new();
            encode_frame(
                &LegacyEnvelope { id, req },
                format,
                MAX_FRAME_BYTES,
                &mut frame,
            )
            .expect("encode");
            frames.push((id, frame));
        }
    }
    frames
}

#[test]
fn legacy_tags_and_policy_less_migrate_are_typed_errors() {
    for text in [
        r#"{"Suspend":{"tenant":3}}"#,
        r#"{"Resume":{"tenant":3}}"#,
        r#"{"Migrate":{"tenant":3}}"#,
        r#""Suspend""#,
    ] {
        assert!(
            serde_json::from_str::<ControlRequest>(text).is_err(),
            "{text}"
        );
    }
    for (_, frame) in legacy_frames() {
        let err = read_frame::<_, RequestEnvelope>(&mut frame.as_slice(), MAX_FRAME_BYTES)
            .expect_err("legacy frame must not parse");
        assert!(matches!(err, ServiceError::Protocol(_)), "{err:?}");
    }
}

/// Over TCP a request the server cannot parse is answered, at its id,
/// with a typed protocol error — and the connection keeps serving.
#[test]
fn unparseable_requests_over_tcp_get_typed_errors_and_the_connection_survives() {
    let controller = Arc::new(SystemController::new(RuntimeConfig::paper_cluster()));
    let vitald = Vitald::spawn(controller, ServiceConfig::default());
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();

    let frames = legacy_frames();
    for (_, frame) in &frames {
        stream.write_all(frame).expect("send");
    }
    // Still the same connection: a current-surface request after them.
    let mut status = Vec::new();
    let env = LegacyEnvelope {
        id: 99,
        req: LegacyRequest::Status,
    };
    encode_frame(&env, WireFormat::Binary, MAX_FRAME_BYTES, &mut status).expect("encode");
    stream.write_all(&status).expect("send");

    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    let mut replies: Vec<ResponseEnvelope> = Vec::new();
    let mut buf = [0u8; 4096];
    while replies.len() < frames.len() + 1 {
        let n = stream.read(&mut buf).expect("read replies");
        assert!(n > 0, "server dropped the connection after {replies:?}");
        decoder.extend(&buf[..n]);
        while let Some((reply, _)) = decoder.next_frame().expect("decode") {
            replies.push(reply);
        }
    }
    let status_reply = replies.pop().expect("status reply");
    assert_eq!(status_reply.id, 99);
    assert!(matches!(status_reply.resp, ControlResponse::Status(_)));
    for ((id, _), reply) in frames.iter().zip(&replies) {
        assert_eq!(reply.id, *id, "answered in order, at the request's id");
        let err = reply.resp.err().expect("typed error");
        assert_eq!(err.code, ErrorCode::Protocol, "{err:?}");
    }

    server.stop();
    vitald.shutdown();
}
