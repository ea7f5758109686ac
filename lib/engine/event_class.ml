type t = Other | Timer | Link_tx | Link_rx | Sample | Protocol | Fault

let count = 7

let index = function
  | Other -> 0
  | Timer -> 1
  | Link_tx -> 2
  | Link_rx -> 3
  | Sample -> 4
  | Protocol -> 5
  | Fault -> 6

let all = [| Other; Timer; Link_tx; Link_rx; Sample; Protocol; Fault |]

let name = function
  | Other -> "other"
  | Timer -> "timer"
  | Link_tx -> "link_tx"
  | Link_rx -> "link_rx"
  | Sample -> "sample"
  | Protocol -> "protocol"
  | Fault -> "fault"
