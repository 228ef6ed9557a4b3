module Ethertype = struct
  let ipv4 = 0x0800
  let ipv6 = 0x86dd
  let vlan = 0x8100
end

module Proto = struct
  let tcp = 6
  let udp = 17
  let icmp = 1
end

let eth_len = 14
let vlan_len = 4
let ipv4_min_len = 20
let ipv6_len = 40
let tcp_min_len = 20
let udp_len = 8
