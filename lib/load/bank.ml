module Api = Locus_core.Api
module K = Locus_core.Kernel
module Mode = Locus_lock.Mode
module Transport = Locus_net.Transport

let rec_len = 16
let encode v = Printf.sprintf "%016d" v
let decode b = int_of_string (String.trim (Bytes.to_string b))

let create env path ~vid ~records =
  let c = Api.creat env path ~vid in
  Api.write_string env c (String.concat "" (List.init records (fun _ -> encode 0)));
  Api.close env c

let txn ?(piggyback = false) env ~files ops =
  let chans = List.map (fun (f, path) -> (f, Api.open_file env path)) files in
  Api.begin_trans env;
  List.iter
    (fun (f, op) ->
      let c = List.assoc f chans in
      match op with
      | Opmix.Read r when piggyback ->
        (* Batching runs exercise the one-round-trip §3.3 path: the
           Shared lock rides on the read message itself. *)
        ignore (Api.pread_locked env c ~pos:(r * rec_len) ~len:rec_len)
      | Opmix.Read r ->
        let pos = r * rec_len in
        Api.seek env c ~pos;
        ignore (Api.lock env c ~len:rec_len ~mode:Mode.Shared ());
        ignore (Api.pread env c ~pos ~len:rec_len)
      | Opmix.Update r ->
        let pos = r * rec_len in
        Api.seek env c ~pos;
        ignore (Api.lock env c ~len:rec_len ~mode:Mode.Exclusive ());
        let v = decode (Api.pread env c ~pos ~len:rec_len) in
        Api.pwrite env c ~pos (Bytes.of_string (encode (v + 1))))
    ops;
  let outcome = Api.end_trans env in
  List.iter (fun (_, c) -> Api.close env c) chans;
  outcome

let outage cl down ~for_us =
  let eng = K.engine cl in
  match down with
  | `Crash site ->
    K.crash_site cl site;
    Engine.schedule ~delay:for_us eng (fun () -> K.restart_site cl site)
  | `Partition site ->
    let net = K.transport cl in
    Transport.partition net [ [ site ] ];
    Engine.schedule ~delay:for_us eng (fun () -> Transport.heal net)
